"""Virtual synchronous generator toolkit: quasi-static simulation,
online grid-impedance estimation with a small LM-trained network, and
adaptive gain scheduling of the VSG power loops.  The modules are the API
(README's library layout names each one); the package re-exports nothing."""

__version__ = "0.1.0"
