"""The Civit et al. protocol stack (arXiv:2308.03524).

Its strong BA is the certified-input stack of
:mod:`repro.core.adaptive_strong_ba` built with ``t + 1`` certification
views: :mod:`.core` holds only the two row builders and the envelopes,
:mod:`.attacks` its certifier attacks.  Its table rows and its
``BACKENDS`` row live in :mod:`repro.protocols.table`.
"""
