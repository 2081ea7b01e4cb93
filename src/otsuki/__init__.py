"""Morse index and nullity of the bipolar tori over closed sphere geodesics.

The computation chain: solve the closed-geodesic family for a rotation
number p/q, sample the geodesic, reduce the stability operator to 2x2
periodic Sturm-Liouville systems per Fourier mode, count negative and
zero eigenvalues by two independent routes (structured finite
differences and boundary forms on a half period), and assemble the index
and nullity with bound checks.
"""

from .errors import (AmbiguousClassificationError, DomainError,
                     EdwardsInapplicableError, NumericalError,
                     RouteDisagreementError, ValidationError)
from .geodesic import (CLIFFORD_HALF_PERIOD, CLIFFORD_ROTATION, GeodesicFamily,
                       RotationNumber, Trajectory, half_period,
                       metric_coefficients, rotation_angle, sample_trajectory,
                       solve_parameter)
from .surface import (FramePoint, KernelField, frame, kernel_fields,
                      kernel_residuals, separated_coefficients)
from .sl import BoundaryCondition, SLSystem
from .spectral import (SpectrumSummary, spectral_index, spectrum_below,
                       spectrum_counts, verify_high_l_positive)
from .edwards import (BoundaryFormData, aggregate_roots, boundary_form,
                      boundary_solutions, det_polynomial,
                      dirichlet_negative_count, gram_matrix)
from .pipeline import (IndexReport, bounds_check, cache_load, cache_store,
                       compute_index, index_bounds, verify_family)

__version__ = "0.1.0"
