"""GraphBinMatch reproduction: graph-based similarity learning for
cross-language binary and source code matching.

A full-stack, from-scratch reproduction of TehraniJamsaz, Chen & Jannesari
(arXiv:2304.04658): mini-language front-ends, an LLVM-like SSA IR with
O0-Oz pass pipelines, a virtual ISA with two compiler back-ends, a
RetDec-style decompiler, ProGraML-style program graphs, a NumPy autograd
GNN stack, the GraphBinMatch model, and the XLIR/BinPro/B2SFinder/LICCA
baselines.

Quickstart::

    from repro.config import cpu_config, tiny_data_config
    from repro.eval.experiments import build_crosslang_dataset, run_graphbinmatch

    dataset, _ = build_crosslang_dataset(tiny_data_config(), ["c", "cpp"], ["java"])
    result = run_graphbinmatch(dataset, cpu_config())
    print(result.metrics.f1)
"""

from repro.config import DataConfig, ModelConfig, cpu_config, tiny_data_config

__version__ = "1.0.0"

__all__ = [
    "ModelConfig",
    "DataConfig",
    "cpu_config",
    "tiny_data_config",
    "__version__",
]
