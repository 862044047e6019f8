"""Exact arithmetic for quadratic lattices, line configurations, and
Jacobian-ring period ranks.

Subpackages:

* :mod:`latconf.matrices` — exact rational/integer dense linear algebra.
* :mod:`latconf.lattices` — quadratic lattices over Z and discriminant forms.
* :mod:`latconf.finite_forms` — finite bilinear and quadratic forms.
* :mod:`latconf.isotropic` — isotropic vector/plane classification.
* :mod:`latconf.configs` — labeled line configurations, GIT stability,
  the Cremona involution, and finite group actions.
* :mod:`latconf.f2space` — the 7-dimensional F2 quadratic space.
* :mod:`latconf.jacobian` — graded pieces of the Jacobian ring and the
  infinitesimal period map.
* :mod:`latconf.verify` — the self-verification harness: a registry of
  named checks re-deriving every numerical claim.
* :mod:`latconf.cli` — command line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"
