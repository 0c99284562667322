"""doslab: density-of-states and Dixmier-trace approximants on discrete metric spaces."""

__version__ = "0.1.0"

# the shapes of ergodic.FolnerSequence; configs and flags name them too
FOLNER_SHAPES = ("cube", "ball", "lacunary")
