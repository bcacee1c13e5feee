"""Exception types shared across the toolkit."""


class PacompError(Exception):
    """Base class for all toolkit errors."""


class MissingParameter(PacompError):
    """A valuation does not assign a parameter that is needed."""


class EmptyRegion(PacompError):
    """A region denotes no valuation at all."""


class ParseError(PacompError):
    """Malformed textual input; carries a position."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class ActionAlphabetClash(PacompError):
    """Action identifiers collide with alphabet symbols."""


class AlphabetMismatch(PacompError):
    """An objective or automaton uses symbols the model does not declare."""


class NotComposedModel(PacompError):
    """Projection was requested on a model whose states or actions are not all pairs."""


class HorizonExceedsStrategyTable(PacompError):
    """A measure computation needs strategy entries beyond the tabulated horizon."""


class IllDefinedValuationInRegion(PacompError):
    """A sampled valuation does not instantiate the model to genuine distributions."""


class NotGraphPreserving(PacompError):
    """A check requires graph-preserving valuations but a sample is not."""


class UnboundedReward(PacompError):
    """A reward objective interacts with an infinite-reward end component."""


class SideConditionError(PacompError):
    """A proof-rule side condition (usually an alphabet inclusion) is violated."""


class NonPolytopicComponent(PacompError):
    """An operation needs interval or vertex-listed uncertainty sets."""


class NotIntervalRPA(PacompError):
    """An operation is restricted to interval-form uncertainty sets."""


class InfeasibleIntervalSet(PacompError):
    """Interval bounds admit no probability distribution."""


class GeneratorBudgetExceeded(PacompError):
    """Extreme-point enumeration would exceed the configured cap."""


class StrategyCapExceeded(PacompError):
    """Strategy enumeration would exceed the configured cap."""


class SampleCapExceeded(PacompError):
    """Region sampling would exceed the configured cap."""
