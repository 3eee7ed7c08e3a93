"""Map: per-tuple transformation (mentioned in Section 2.2).

Applies a function to each input tuple's values, emitting one output
tuple per input tuple.  Metadata (timestamp, sequence lineage) is
inherited via :meth:`StreamTuple.derive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.columnar import ColumnExpr, ExtendSpec, Field, MapSpec
from repro.core.operators.base import Emission, StatelessOperator, TrainEmission
from repro.core.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.core.columnar import ColumnarTrain


class Map(StatelessOperator):
    """Map(f): emit ``f(values)`` for each input tuple.

    Args:
        func: function from the input values mapping to the output
            values mapping.
        name: optional label shown in catalogs.
    """

    fusable = True

    def __init__(
        self,
        func: Callable[[Mapping[str, Any]], Mapping[str, Any]],
        name: str | None = None,
        cost_per_tuple: float = 0.001,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        self.func = func
        self.func_name = name or getattr(func, "__name__", "f")

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"Map has a single input port, got {port}")
        return [(0, tup.derive(self.func(tup.values)))]

    def process_batch(self, tuples: list[StreamTuple], port: int = 0) -> list[Emission]:
        """Vectorized fast path: hoisted function lookup, one output pass."""
        if port != 0:
            raise ValueError(f"Map has a single input port, got {port}")
        func = self.func
        make = StreamTuple
        return [(0, make(func(t.values), t.timestamp, t.trace)) for t in tuples]

    @property
    def supports_columnar(self) -> bool:
        """Columnar when the body is a compiled map specification."""
        return isinstance(self.func, (MapSpec, ExtendSpec))

    def process_columnar(
        self, train: "ColumnarTrain", port: int = 0
    ) -> list[TrainEmission]:
        """Vectorized path: each output field is one column expression."""
        if port != 0:
            raise ValueError(f"Map has a single input port, got {port}")
        return [(0, self.func.evaluate(train))]  # type: ignore[union-attr]

    def describe(self) -> str:
        return f"Map({self.func_name})"


def columnar_map(outputs: Mapping[str, ColumnExpr | Any], **kwargs) -> Map:
    """A Map whose output fields are compiled column expressions.

    ``columnar_map({"G": col("G"), "A": col("A") + 1})`` behaves exactly
    like the equivalent lambda Map on the scalar path and vectorizes on
    the columnar path.  Non-expression values become literals.
    """
    spec = MapSpec(outputs)
    return Map(spec, name=kwargs.pop("name", None) or spec.describe(), **kwargs)


def project(*fields: str, **kwargs) -> Map:
    """A Map keeping only the named fields (compiled; vectorizes)."""
    spec = MapSpec({f: Field(f) for f in fields})
    return Map(spec, name=f"project{fields}", **kwargs)


def extend(field: str, func: Callable[[Mapping[str, Any]], Any] | ColumnExpr, **kwargs) -> Map:
    """A Map adding a computed field to each tuple.

    When ``func`` is a :class:`~repro.core.columnar.ColumnExpr` the Map
    compiles to the columnar fast path; plain callables keep the
    classic opaque form.
    """
    if isinstance(func, ColumnExpr):
        return Map(ExtendSpec(field, func), name=f"extend({field})", **kwargs)

    def extender(values: Mapping[str, Any]) -> Mapping[str, Any]:
        out = dict(values)
        out[field] = func(values)
        return out

    return Map(extender, name=f"extend({field})", **kwargs)
