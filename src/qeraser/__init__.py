"""Coincidence simulator and analysis kit for delayed-choice eraser optics.

The package splits into four layers and a front end, imported by module name
(``qeraser.optics``, ``qeraser.events`` ...); the package root re-exports
nothing:

- optics: exact amplitudes and probability tables for the two-path
  interferometer with tap couplers and removable recombiners
- experiment: run configuration, serialisation, closed-form references
- events: seeded sampling, time-tagged event streams, coincidence matching
- analysis: fringe fitting, per-block decoding, information-rate estimates
- cli: the command-line front end
"""

__version__ = "0.1.0"
