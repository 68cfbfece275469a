"""``repro.pipeline`` — the staged compilation pipeline (single source of truth
for the source → IR → binary → decompiled-IR → graph chain)."""

from repro.pipeline.staged import (
    PIPELINE_VERSION,
    STAGE_CODEGEN,
    STAGE_DECOMPILE,
    STAGE_GRAPH,
    STAGE_LOWER,
    STAGE_OPTIMIZE,
    STAGE_PARSE,
    STAGE_TRANSFORM,
    STAGES,
    CompilationPipeline,
    CompilationResult,
    StageFailure,
    collector_paused,
    lazy_views,
    normalize_transforms,
)

__all__ = [
    "CompilationPipeline",
    "CompilationResult",
    "StageFailure",
    "PIPELINE_VERSION",
    "STAGES",
    "STAGE_PARSE",
    "STAGE_LOWER",
    "STAGE_OPTIMIZE",
    "STAGE_TRANSFORM",
    "STAGE_CODEGEN",
    "STAGE_DECOMPILE",
    "STAGE_GRAPH",
    "collector_paused",
    "lazy_views",
    "normalize_transforms",
]
