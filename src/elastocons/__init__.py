"""Finite elasticity as a first-order system of conservation laws.

State variables are the deformation gradient F and the momentum density p;
velocity, stress and total energy are constitutive functions of (F, p).  The
package provides

* dense 3-D tensor algebra (:mod:`elastocons.tensors`),
* constitutive model builders and stored-energy registry
  (:mod:`elastocons.constitutive`),
* numerical admissibility checks and representation recovery
  (:mod:`elastocons.admissibility`),
* acoustic-tensor / wave-structure analysis (:mod:`elastocons.hyperbolicity`),
* a periodic finite-volume evolution with invariant monitors
  (:mod:`elastocons.solver`),
* a deterministic CLI (:mod:`elastocons.cli`).
"""

__version__ = "0.1.0"

from .tensors import det_cofactor, eig_sym, outer
from .constitutive import (ConstitutiveModel, State,
                           StoredEnergy, classical_model,
                           corrupted_model, elasticity_map, fd_derivative,
                           fd_elasticity_tensor, fd_stress, fd_velocity_jacobian,
                           linear_isotropic,
                           momentum_from_velocity, neo_hookean, pointwise_model,
                           st_venant_kirchhoff, stored_energy_by_name,
                           stored_energy_registry, tensor_mass_model)
from .admissibility import (AdmissibilityReport, RepresentationResult,
                            check_ellipticity, check_galilean, check_maxwell,
                            check_normality, check_parity, check_thermo,
                            draw_ellipticity_probes, draw_states,
                            extract_representation, find_dissipation_violation,
                            full_report, initial_rate_check)
from .hyperbolicity import (HyperbolicityReport, acoustic_map, acoustic_tensor,
                            baseline_directions, ellipticity_loss_bisection,
                            fibonacci_sphere, flux_jacobian, scan_directions)
from .solver import (Field, Grid, MonitorTrace, affine_initial_field,
                     dissipation_residual, flux, involution_residual,
                     measure_wave_speed, plane_wave_speed, rest_field, run,
                     sine_wave_field, step_lax_friedrichs, total_deformation,
                     total_energy, total_momentum, uniform_field)
from .config import RunConfig, load_config, parse_config
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
