"""Exception types shared across the simulator."""

from __future__ import annotations


class HeterogeneousRankError(ValueError):
    """Averaging-style aggregation was asked to combine adapters of mixed rank.

    Independent averaging of the two factors is only defined when every
    client trains at the same rank; callers that need mixed ranks must use
    stacking or zero-padding instead.
    """


class ConfigError(ValueError):
    """Invalid experiment configuration, carrying one message per bad field."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DivergenceError(ArithmeticError):
    """A round of any strategy produced non-finite numbers, or a held-out
    loss past ``simulation.DIVERGENCE_RATIO`` times the baseline loss.

    Names the strategy, the round (numbered as in the report, where row t
    follows round t) and the clients whose local training or update b @ a
    is non-finite. When no client is to blame the client list is empty and
    ``what`` says what diverged instead: the merged weights, the held-out
    loss, or, for the centralized reference, which trains one adapter on
    the pooled data of all clients, that adapter's local SGD.
    """

    def __init__(
        self,
        strategy: str,
        round: int,
        clients: list[int],
        what: str = "the merged weights are not finite",
    ):
        self.strategy = strategy
        self.round = round
        self.clients = list(clients)
        if self.clients:
            what = f"non-finite update b @ a from client(s) {', '.join(map(str, self.clients))}"
        super().__init__(f"strategy {strategy} diverged in round {round}: {what}")
