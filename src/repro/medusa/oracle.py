"""Oracles: runtime plan switching under movement contracts (Section 7.2).

"An oracle on each side determines at runtime whether a query plan and
corresponding content contracts from one of the movement contracts is
preferred to any of currently active query plans and content contracts.
If so, it communicates with the counterpart oracle to suggest a
substitution ... If the second oracle agrees, then the switch is made.
In this way, two oracles can agree to switch query plans from time to
time."

An oracle proposes a switch when the alternative plan strictly improves
its participant's hypothetical profit; the counterpart agrees when its
own profit does not degrade (beyond a small tolerance).  Because the
participants' cost models are convex in load, the sequence of accepted
pairwise switches drives the federation toward a balanced, profitable
allocation — the paper's hope that the economy "anneals to a state
where the economy is stable."
"""

from __future__ import annotations

from repro.medusa.contracts import MovementContract, MovementPlan
from repro.medusa.federation import Federation, FederationError

TOLERANCE = 1e-9  # a profit change an oracle treats as none


class Oracle:
    """The plan-evaluation agent of one participant."""

    def __init__(self, federation: Federation, participant: str):
        self.federation = federation
        self.participant = participant
        self.proposals_made = 0
        self.proposals_accepted = 0

    def profit_under(self, contract: MovementContract, host: str) -> float:
        """This participant's hypothetical profit with ``host`` hosting
        the contract's stage."""
        overrides = {contract.query: {contract.stage: host}}
        profits = self.federation.evaluate_profits(overrides)
        return profits[self.participant]

    def prefers_switch(self, contract: MovementContract) -> str | None:
        """The alternative host this oracle would rather see, or None."""
        if contract.cancelled:
            return None
        current = contract.current_host
        alternative = contract.second if current == contract.first else contract.first
        if self.profit_under(contract, alternative) > (
            self.profit_under(contract, current) + TOLERANCE
        ):
            return alternative
        return None

    def agrees_to(self, contract: MovementContract, proposed_host: str) -> bool:
        """Counterpart check: accept unless the switch hurts us."""
        current = contract.current_host
        gain = self.profit_under(contract, proposed_host) - self.profit_under(
            contract, current
        )
        return gain >= -TOLERANCE


def make_movement_contract(
    federation: Federation, query_name: str, stage_name: str, first: str, second: str
) -> MovementContract:
    """Create a movement contract with one plan per candidate host.

    Both hosts must be able to run the stage (remote-definition
    authorization is checked when a plan activates).
    """
    query = federation.queries[query_name]
    query.stage(stage_name)  # validates the stage exists
    contract = MovementContract(query=query_name, stage=stage_name, first=first, second=second)
    for host in (first, second):
        contract.add_plan(host, MovementPlan(host=host))
    current = query.assignment.get(stage_name)
    if current in (first, second):
        contract.activate(current)
    return contract


def negotiate(
    federation: Federation,
    contract: MovementContract,
    oracles: dict[str, Oracle],
) -> bool:
    """One pairwise negotiation; returns True if the plan switched.

    The currently-hosting side's oracle (or either side) may propose;
    the counterpart accepts or declines.  On agreement, the plan flips
    and the stage is reassigned (re-validating remote definition).
    """
    if contract.cancelled:
        return False
    for proposer_name in (contract.first, contract.second):
        proposer = oracles[proposer_name]
        proposed = proposer.prefers_switch(contract)
        if proposed is None:
            continue
        proposer.proposals_made += 1
        counterpart_name = (
            contract.second if proposer_name == contract.first else contract.first
        )
        counterpart = oracles[counterpart_name]
        if not counterpart.agrees_to(contract, proposed):
            continue
        try:
            federation.assign_stage(contract.query, contract.stage, proposed)
        except FederationError:
            continue  # no authorization at the proposed host
        contract.activate(proposed)
        proposer.proposals_accepted += 1
        counterpart.proposals_accepted += 1
        return True
    return False


def run_market(
    federation: Federation,
    contracts: list[MovementContract],
    rounds: int,
) -> dict:
    """Run market rounds with oracle negotiation after each round, one
    fresh :class:`Oracle` per participant.

    Returns a summary: per-round profits/loads (federation.history),
    total switches, and the round after which the allocation stopped
    changing (the annealing point), or None if it never settled.
    """
    oracles = {name: Oracle(federation, name) for name in federation.participants}
    total_switches = 0
    settled_at: int | None = None
    for round_index in range(rounds):
        federation.run_round()
        switched = False
        for contract in contracts:
            if negotiate(federation, contract, oracles):
                switched = True
                total_switches += 1
        if switched:
            settled_at = None
        elif settled_at is None:
            settled_at = round_index
    return {
        "switches": total_switches,
        "settled_at": settled_at,
        "history": federation.history,
    }
