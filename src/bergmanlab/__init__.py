"""Numerical laboratory for Bergman kernels, metrics, and the operator
theory they carry on model domains in several complex variables.

Layers, bottom up: domains (model domains and quadrature grids),
kernels (kernel engines, orthonormal bases, metrics), geometry
(graph geodesics, nets, partitions, charts), operators (truncated
Hankel operators and the weak-null probe), approximation (local
holomorphic approximation, boundary scans, decompositions), diagnostics
(constant estimation and coherence checks), harness (configs, the
command runner and every artifact file).
"""

__version__ = "1.0.0"

from .domains import (DomainSpec, QuadratureGrid, ball, boundary_gap,
                      build_grid, contains, disc, egg, monomial_norm2,
                      polydisc)
from .kernels import (KernelEngine, OrthonormalBasis, engine_for,
                      multi_indices, orthonormalize, reinhardt_basis)
from .geometry import (ChartMap, GeodesicField, MetricBall, Net, Partition,
                       build_net, chart, metric_ball, partition_of_unity)
from .operators import (OperatorTruncation, SymbolFn, compactness_indicator,
                        hankel_matrix, weak_null_probe)
from .approximation import (Decomposition, OmegaValue, boundary_scan,
                            decompose, omega, variety_test)
from .diagnostics import (ConstantEstimate, off_diagonal_check, sbg_check,
                          t91_equivalences, volume_comparison_check,
                          volume_equivalence_bracket)
from .harness import ExperimentConfig, resolve_symbol, run, symbol_parse
