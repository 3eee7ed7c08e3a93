"""Remote definition (Section 4.4).

"With this approach, a participant instantiates and composes operators
from a pre-defined set offered by another participant to mimic box
sliding. ... remote definition also helps content customization.  For
example, a participant might offer streams of events indicating stock
quotes.  A receiving participant interested only in knowing when a
specific stock passes above a certain threshold would normally have to
receive the complete stream and would have to apply the filter itself.
With remote definition, it can instead remotely define the filter, and
receive directly the customized content."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.medusa.participant import Participant


class RemoteDefinitionError(RuntimeError):
    """Raised when a remote definition is not authorized or offered."""


@dataclass
class RemoteOperator:
    """A successfully instantiated remote operator."""

    definer: str
    host: str
    template: str
    instance: str


def remote_define(host: Participant, definer: str, template: str) -> RemoteOperator:
    """Instantiate ``template`` at ``host`` on behalf of ``definer``.

    Raises :class:`RemoteDefinitionError` unless the host both offers
    the template and has authorized the definer — process migration's
    "intractable compatibility and security issues" are avoided by only
    ever composing the host's own pre-defined operators.
    """
    if template not in host.offered_operators:
        raise RemoteDefinitionError(
            f"{host.name!r} does not offer operator template {template!r}"
        )
    if definer not in host.authorized_definers:
        raise RemoteDefinitionError(
            f"{host.name!r} has not authorized {definer!r} for remote definition"
        )
    return RemoteOperator(
        definer=definer,
        host=host.name,
        template=template,
        instance=f"{definer}.{template}@{host.name}",
    )


def content_customization_savings(
    rate: float, selectivity: float, message_bytes: int
) -> float:
    """Bytes/round saved by remotely defining a filter at the sender.

    Without remote definition the receiver gets the complete stream
    (``rate`` messages); with the filter at the sender only the
    matching fraction crosses the boundary.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError("selectivity must be in [0, 1] for a filter")
    return rate * (1.0 - selectivity) * message_bytes
