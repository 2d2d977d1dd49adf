"""Desk-scale, deterministic simulator of a re-vote-and-check internet
voting ceremony: lifted ElGamal with trapdoor opening, threshold key
sharing, a verifiable shuffle, ideal-functionality components, the full
election protocol, and the manipulation/detection mathematics.
"""

from .ceremony import TOOL_VERSION as __version__  # noqa: F401

from .groups import GroupParams, setup, hash_to_element  # noqa: F401
from .elgamal import (Ciphertext, PublicKey, SecretKey, NotACandidate,  # noqa: F401
                      RandomnessMismatch, keygen, make_keypair, encrypt,
                      decrypt, rerandomize, trapdoor_decrypt)
from .shamir import SecretShare, InsufficientShares, deal, reconstruct  # noqa: F401
from .shuffle import (ShuffleStatement, ShuffleWitness, ShuffleProof,  # noqa: F401
                      BadWitness, prove_shuffle, verify_shuffle,
                      serialize_proof, deserialize_proof, security_rounds)
from .behavior import (BehaviorDistribution, BadDistribution,  # noqa: F401
                       default_distribution, load_distribution)
from .functionalities import (BulletinBoard, CertRegistry, KeyGenService,  # noqa: F401
                              DecryptionService, VotingDevice, AuditDevice,
                              Ballot, VerificationToken, NotReady,
                              ThresholdNotMet, MissingShuffle, UnknownSsid)
from .ceremony import (ElectionConfig, ElectionTranscript, ElectionResult,  # noqa: F401
                       AuditVerdict, CeremonyError, ReplayError, run_election,
                       voter_vote_loop, ea_accept_ballot, tally_alg,
                       audit_transcript)
from .adversary import (ManipulationPolicy, PolicyDomainError, AttackOutcome,  # noqa: F401
                        AttackReport, simulate_policy_on_pattern, outcome_probabilities,
                        optimal_policy,
                        undetected_probability, detection_probability,
                        monte_carlo_success, end_to_end_attack)
