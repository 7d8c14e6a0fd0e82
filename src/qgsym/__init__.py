"""qgsym: spectra of metric graphs with cyclic symmetry.

Builds cycles, circulant graphs and Cartesian products of cycles, decomposes
functions and the Laplacian by cyclic-group irreps, constructs quotient
graphs with quasi-periodic vertex conditions, and computes/factorizes
secular determinants to extract Laplacian spectra numerically.
"""

from .graphs import (
    MetricGraph,
    make_graph,
    subdivide_midpoints,
)
from .groups import (
    Irrep,
    crt_index,
    irrep_sum,
    irrep_value,
)
from .actions import (
    GraphAction,
    lift_action_subdivided,
    validate_action,
)
from .builders import (
    cartesian_product,
    circulant_graph,
    cycle_graph,
    cycle_product,
    product_action,
    product_circulant_isomorphism,
    torus_action,
)
from .scattering import (
    QuasiPeriodic,
    SecularSystem,
    Standard,
    build_secular_system,
    character_blocks,
    secular_det,
    standard_conditions,
    vertex_scattering_quasiperiodic,
    vertex_scattering_standard,
)
from .quotient import (
    QuotientFamily,
    QuotientSpec,
    all_quotient_specs,
    quotient_dispersion_real,
    quotient_graph,
    quotient_secular_closed,
    quotient_system,
    secular_product,
    torus_secular_system,
)
from .spectra import (
    Roots,
    Spectrum,
    compare_spectra,
    merge_spectra,
    winding_number,
)
from .locators import (
    find_roots_real,
    find_roots_unitary,
    UnitaryFamily,
)
from .decompose import (
    SampledFunction,
    l2_inner,
    l2_norm_sq,
    project,
    pull_back,
    quasi_periodicity_residual,
    random_function,
)

__version__ = "0.1.0"
