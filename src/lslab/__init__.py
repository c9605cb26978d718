"""Laboratory for Bose gases in Poisson point disorder.

Exact spectra of the one-particle Hamiltonian with a wall at every disorder
point, exact canonical occupations of the ideal gas on top of them, and the
closed-form bounds and scaling diagnostics that govern when the condensate
survives.
"""

from .disorder import DisorderRealization, EnsembleSeed, sample_realization
from .spectrum import (EigenMode, EmptySpectrumError, Spectrum, build_spectrum,
                       cutoff_is_converged, default_cutoff, dirichlet_energy,
                       ground_mode, ground_state_energy, weyl_mode_count)
from .thermo import (THERMO_MAX_N, CutoffConvergenceWarning, ThermoSolution,
                     boltzmann_sums, canonical_partition, condensate_profile,
                     estimate_saturation_density, saturation_density)
from .bounds import (PowerLogLaw, ScalingDiagnostics, TrialStateEnergy,
                     VoidTrialStateError, box_count_criterion, box_masses,
                     check_appendix_count, check_lemma21, critical_density,
                     pule_aonghusa_bound, scaling_diagnostics, theorem33_bound,
                     transition_kinetic_constant, transition_switch,
                     transition_switch_derivative, trial_state_energy)
from .lab import (ConfigError, EnsembleReport, ExperimentConfig, KNOWN_CHECKS,
                  emit_report, load_config, main, run_ensemble)

__version__ = "0.1.0"
