"""Cooperative heat-and-power trading simulator.

Layers: market primitives, exact community best responses, aggregator
pricing and equilibrium search, a contract ledger with a hash-linked
chain, and credit-weighted consensus over a deterministic message
fabric.  The cli module ties them into runnable scenarios.
"""

from .market import (ChpParams, CityMarket, CommunityParams, Dispatch,
                     MarketError, PricePair, adaption_coefficients, des_utility,
                     valid_k_intervals)
from .follower import (FollowerError, KktCase, KktSolution, best_response,
                       export_totals)
from .equilibrium import (NeConfig, NeTrace, NoFixedPoint, SeOutcome, find_ne,
                          profit, stackelberg_outcome)
from .ledger import (Account, BadContractState, Block, Chain, Contract,
                     ContractState, CrossCityPair, EnergyKind,
                     InsufficientBalance, Ledger, LedgerError, Role,
                     UnknownAccount, export_chain, make_block, make_genesis,
                     merkle_root, sign, sim_secret, validate_block,
                     verify_chain, verify_signature)
from .consensus import (AllCreditsZero, Behavior, ConsensusNode, FaultProfile,
                        RoundOutcome, TooFewNodes, check_quorum, elect_leader,
                        init_credits, min_quorum_cardinality, quorum_weight,
                        run_round, update_credits)
from .netsim import (PhaseNet, PipelineResult, RoundDriver, make_nodes,
                     run_pipeline, run_rounds)

__version__ = "0.1.0"
