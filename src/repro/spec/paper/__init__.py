"""The paper's instances as spec text, one parameterised ``.tiera`` file
each (Figures 3, 4, 6, 12, 14, 17; §4.1.1; Tables 2 and 3), plus the
deployments the other figure rows build: the adaptive-placement row's
three, the ablations' five (Figure 5's LRU and MRU eviction, inclusive
tiering, a threshold response in the foreground and in the background)
and the backup drill's.  Every parameter has a default, so each file
compiles, validates and prices as it stands."""

from importlib import resources


def paper_spec(name: str) -> str:
    """The source text of the packaged ``<name>.tiera``."""
    return resources.files(__name__).joinpath(f"{name}.tiera").read_text()
