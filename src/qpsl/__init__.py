"""qpsl: computational machinery for sparse-frequency quasi-periodic
Schrodinger operators.

Subpackages follow the stages of the construction:

* :mod:`qpsl.diophantine`  - continued fractions, Diophantine checks,
  resonant denominators.
* :mod:`qpsl.label_set`    - growth schedules and the sparse label set K.
* :mod:`qpsl.fourier`      - finite Fourier series on the torus (scalar and
  matrix valued), analytic and C^k norm majorants, the explicit potential.
* :mod:`qpsl.cocycle`      - SL(2,R)/SU(1,1) utilities and quasi-periodic
  cocycle dynamics (the Schrodinger rotation number, hyperbolicity).
* :mod:`qpsl.kam`          - the reducibility iteration on SU(1,1) cocycles.
* :mod:`qpsl.edge`         - the gap-edge search, a 1-D root search on t(E).
* :mod:`qpsl.spectrum`     - integrated density of states, rotation curves,
  gap detection and labeling.
* :mod:`qpsl.moser_poschel`- gap-edge probes bracketing gap lengths.
* :mod:`qpsl.cli`          - batch front door emitting CSV/JSON artifacts.

Unit conventions (used consistently everywhere):

* Torus angles theta are in radians, period 2*pi per coordinate; the doubled
  torus (period 4*pi) is represented by half-integer frequencies.
* Frequencies alpha and rotation numbers rho are in cycles, so a rotation
  step moves theta by 2*pi*alpha and resonances are distances on R/Z.
* |n| for lattice vectors is the sup norm.
"""

__version__ = "0.1.0"
