"""Solution generator: (task, variant, language) → source file → parsed AST.

This is the corpus factory.  A :class:`SolutionGenerator` instantiates task
templates into source *text* in each language, then runs the text back
through the real front-end parser — so everything downstream (IR lowering,
graph construction) consumes genuinely compiled programs, not in-memory
shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang import ast
from repro.lang.minic import MiniCRenderer, parse_minic
from repro.lang.minicpp import MiniCppRenderer, parse_minicpp
from repro.lang.minijava import MiniJavaRenderer, parse_minijava
from repro.lang.tasks import TASK_REGISTRY, Spec

LANGUAGES = ("c", "cpp", "java")

_RENDERERS = {
    "c": MiniCRenderer,
    "cpp": MiniCppRenderer,
    "java": MiniJavaRenderer,
}
_PARSERS = {
    "c": parse_minic,
    "cpp": parse_minicpp,
    "java": parse_minijava,
}


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
        if language not in LANGUAGES:
            raise ValueError(f"unknown language {language!r}")
        if task not in TASK_REGISTRY:
            raise KeyError(f"unknown task {task!r}")
        spec = Spec(self.seed, task, variant, language, independent=self.independent)
        built = TASK_REGISTRY[task].build(spec)
        text = _RENDERERS[language]().render(built)
        program = _PARSERS[language](text)
        return SourceFile(task=task, variant=variant, language=language, text=text, program=program)

    def generate_many(
        self,
        tasks: Optional[List[str]] = None,
        variants: int = 4,
        languages: Optional[List[str]] = None,
    ) -> List[SourceFile]:
        """Generate a full corpus: every task × variant × language."""
        tasks = tasks if tasks is not None else sorted(TASK_REGISTRY)
        languages = languages if languages is not None else list(LANGUAGES)
        files: List[SourceFile] = []
        for task in tasks:
            for variant in range(variants):
                for language in languages:
                    files.append(self.generate(task, variant, language))
        return files

