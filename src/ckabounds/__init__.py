"""Upper bounds on device-independent conference key rates of noisy GHZ devices."""

from .qmat import (DensityMatrix, Povm, eig_hermitian, maximally_mixed,
                   partial_trace, permute_systems, purify, quantum_cmi,
                   relative_entropy, tensor, von_neumann_entropy)
from .states import GhzDecomposition, depolarize, ghz, ideal_key_state, noisy_ghz3
from .behaviors import (Behavior, GameSpec, behavior_distance,
                        behavior_from_measurement, critical_noise,
                        default_measurements, expected_winning_probability,
                        game_value, honest_behavior, is_nonsignaling,
                        parity_chsh_value, parity_game_spec, qber)
from .secrecy import (ClassicalChannel, JointDistribution, SearchBudget,
                      apply_channel, continuity_envelope, dual_intrinsic,
                      intrinsic_information, s_n, shannon_cmi, total_correlation)
from .attacks import CcAttack, build_cc_attack, eve_postprocess, local_behavior_from_chi
from .bounds import (BoundCurve, PartitionBoundInput, RelayTranscript,
                     compute_curves, default_grid, enumerate_partitions,
                     partition_bound, relay_simulate, write_curves_csv)

__version__ = "0.1.0"
