"""The trusted PKI: per-process signing keys and the key registry.

The paper assumes a trusted public-key infrastructure (Section 2).  In
this reproduction the PKI is a :class:`KeyRegistry` created once per
deployment: it derives an independent HMAC key for every process from a
master seed.  A process signs through its :class:`Signer` handle; anyone
can verify through the registry.

Unforgeability model
--------------------
The simulation runs in one address space, so enforcement is by API
discipline: correct processes only ever hold their own :class:`Signer`,
and the adversary is handed the signers of the processes it corrupts
(:meth:`KeyRegistry.signer_for`).  A signature constructed any other way
fails verification because its HMAC tag will not match.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.config import ProcessId
from repro.crypto.canonical import encode
from repro.crypto.signatures import Signature
from repro.errors import UnknownSignerError


def _derive_key(master_seed: bytes, pid: ProcessId) -> bytes:
    return hashlib.sha256(master_seed + b"|key|" + str(pid).encode()).digest()


class KeyRegistry:
    """Trusted key store for ``n`` processes.

    Parameters
    ----------
    n:
        Number of processes; ids are ``0 .. n-1``.
    master_seed:
        Deterministic seed for key derivation, so a whole simulation can
        be reproduced from one integer seed.
    """

    def __init__(self, n: int, master_seed: bytes = b"repro-pki") -> None:
        if n < 1:
            raise UnknownSignerError(f"registry needs n >= 1 processes, got {n}")
        self._n = n
        self._keys = {pid: _derive_key(master_seed, pid) for pid in range(n)}

    @property
    def n(self) -> int:
        return self._n

    def _key_of(self, pid: ProcessId) -> bytes:
        try:
            return self._keys[pid]
        except KeyError:
            raise UnknownSignerError(f"process {pid} is not registered") from None

    # ------------------------------------------------------------------
    # Signing / verification
    # ------------------------------------------------------------------

    def sign(self, pid: ProcessId, payload: object) -> Signature:
        """Sign ``payload`` (any canonically encodable value) as ``pid``.

        Library-internal; protocol code should go through a
        :class:`Signer` so that possession of signing capability is
        explicit.
        """
        data = encode(payload)
        tag = hmac.new(self._key_of(pid), data, hashlib.sha256).digest()
        return Signature(signer=pid, tag=tag)

    def verify(self, signature: Signature, payload: object) -> bool:
        """Check that ``signature`` is its signer's signature on ``payload``.

        ``False``, never an exception, for a non-:class:`Signature`, an
        unregistered signer, a malformed tag or a payload the canonical
        encoder rejects: callers pass wire input straight in.
        """
        if not isinstance(signature, Signature):
            return False
        try:
            key = self._keys.get(signature.signer)
            if key is None:
                return False
            expected = hmac.new(key, encode(payload), hashlib.sha256).digest()
            return hmac.compare_digest(expected, signature.tag)
        except Exception:
            return False

    def signer_for(self, pid: ProcessId) -> "Signer":
        """Hand out the signing capability of ``pid``.

        Called once per correct process at startup, and by the adversary
        for each process it corrupts.
        """
        self._key_of(pid)  # validate pid
        return Signer(registry=self, pid=pid)


class Signer:
    """Signing capability of a single process."""

    def __init__(self, registry: KeyRegistry, pid: ProcessId) -> None:
        self._registry = registry
        self._pid = pid

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def sign(self, payload: object) -> Signature:
        """Produce this process's signature on ``payload``."""
        return self._registry.sign(self._pid, payload)
