"""chromlc: gate-schedule compilation for pair-interaction Hamiltonians.

Continuous evolutions under time-dependent two-local Hamiltonians are
discretized into steps of simultaneous two-qubit gates by edge-coloring
the interaction graph at every sampled instant.  The weighted depth of
the compiled schedule (sum of per-step maximal gate angles) tracks the
integrated chromatic index of the source, which doubles as a running-time
measure for the continuous dynamics; the package also measures how the
variance of mean-field observables grows with that index.
"""
