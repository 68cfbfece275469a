"""Solution generator: (task, variant, language) → source file → parsed AST.

This is the corpus factory.  A :class:`SolutionGenerator` instantiates task
templates into source *text* in each language, then runs the text back
through the real front-end parser — so everything downstream (IR lowering,
graph construction) consumes genuinely compiled programs, not in-memory
shortcuts.

:data:`FRONTENDS` is the one registry of supported languages: the
generator, the compilation pipeline's ``parse`` stage and the CLI all read
it, and :func:`frontend` is the one place an unknown language is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Type

from repro.lang import ast
from repro.lang.minic import MiniCRenderer, parse_minic
from repro.lang.minicpp import MiniCppRenderer, parse_minicpp
from repro.lang.minijava import MiniJavaRenderer, parse_minijava
from repro.lang.parser_base import RendererBase
from repro.lang.tasks import TASK_REGISTRY, Spec


@dataclass(frozen=True)
class Frontend:
    """One language's front end: AST → text renderer and text → AST parser."""

    renderer: Type[RendererBase]
    parse: Callable[[str], ast.Program]


FRONTENDS: Dict[str, Frontend] = {
    "c": Frontend(MiniCRenderer, parse_minic),
    "cpp": Frontend(MiniCppRenderer, parse_minicpp),
    "java": Frontend(MiniJavaRenderer, parse_minijava),
}
#: Supported languages in registry order (fixes corpus and grid orders).
LANGUAGES = tuple(FRONTENDS)


def frontend(language: str) -> Frontend:
    """The front end for ``language``; ValueError naming the supported set."""
    try:
        return FRONTENDS[language]
    except KeyError:
        raise ValueError(
            f"unknown language {language!r}; supported: {list(LANGUAGES)}"
        ) from None


@dataclass
class SourceFile:
    """A generated solution: source text plus its front-end parse.

    ``program`` is the AST obtained by *parsing the rendered text back*,
    i.e. what a compiler front-end would actually see.
    """

    task: str
    variant: int
    language: str
    text: str
    program: ast.Program = field(repr=False)

    @property
    def identifier(self) -> str:
        """Stable id, e.g. ``sum_array/v3.java``."""
        return f"{self.task}/v{self.variant}.{self.language}"


class SolutionGenerator:
    """Deterministic factory for solution source files.

    Parameters
    ----------
    seed:
        Root seed; every (task, variant, language) triple derives its own
        stream, so corpora are reproducible and order-independent.
    independent:
        When True, each language renders a (task, variant) with its own
        names, styles and literal data — modelling CLCDSA's independently
        written solutions (shared algorithm, not shared literals).  When
        False (default) the renderings make identical choices and are
        semantically equivalent across languages.
    """

    def __init__(self, seed: int = 0, independent: bool = False):  # noqa: D107
        self.seed = seed
        self.independent = independent

    def generate(self, task: str, variant: int, language: str) -> SourceFile:
        """Instantiate one solution and round-trip it through the parser."""
        fe = frontend(language)
        if task not in TASK_REGISTRY:
            raise KeyError(f"unknown task {task!r}")
        spec = Spec(self.seed, task, variant, language, independent=self.independent)
        built = TASK_REGISTRY[task].build(spec)
        text = fe.renderer().render(built)
        program = fe.parse(text)
        return SourceFile(task=task, variant=variant, language=language, text=text, program=program)
