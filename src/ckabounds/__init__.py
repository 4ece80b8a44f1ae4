"""Upper bounds on device-independent conference key rates of noisy GHZ devices."""

from .qmat import (DensityMatrix, Povm, partial_trace, purify, quantum_cmi,
                   relative_entropy, von_neumann_entropy)
from .states import GhzDecomposition, ghz, noisy_ghz3
from .behaviors import (Behavior, behavior_from_measurement, critical_noise,
                        default_measurements, depolarized, expected_winning_probability,
                        honest_behavior, parity_chsh_value, qber)
from .secrecy import (ClassicalChannel, JointDistribution, SearchBudget,
                      apply_channel, continuity_envelope, dual_intrinsic,
                      intrinsic_information, s_n, shannon_cmi, total_correlation)
from .attacks import CcAttack, build_cc_attack, eve_postprocess
from .bounds import (BoundCurve, RelayTranscript, compute_curves, default_grid,
                     enumerate_partitions, relay_simulate, write_curves_csv)

__version__ = "0.1.0"
