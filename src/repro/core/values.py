"""Distinguished values of the agreement protocols.

The paper uses two distinct "empty" notions that its pseudocode
occasionally conflates (see DESIGN.md fidelity note 2):

* :data:`BOTTOM` — the *decidable* default value ``⊥``.  Weak BA may
  legitimately output it (Definition 3: if ``⊥`` is decided, more than
  one valid value exists in the run), and BB outputs it when the sender
  is Byzantine and no sender-signed value won.
* :data:`UNDECIDED` — the *local* "no decision yet" marker of
  Algorithm 3.  It is never a protocol output.

Both are singletons with value semantics so they survive equality
checks across process boundaries and canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bottom:
    """The decidable default value ``⊥``."""

    def __repr__(self) -> str:
        return "⊥"


@dataclass(frozen=True)
class Undecided:
    """Local sentinel: this process has not yet decided (Alg. 3 init)."""

    def __repr__(self) -> str:
        return "<undecided>"


BOTTOM = Bottom()
UNDECIDED = Undecided()
