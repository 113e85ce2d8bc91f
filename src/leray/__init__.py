"""Exact-arithmetic Leray-Serre spectral sequences for K-theory bundles
over finite simplicial complexes.

The API is the submodules: ``leray.simplicial``, ``leray.local_systems``,
``leray.cohomology``, ``leray.group_cohomology``, ``leray.spectral``,
``leray.ncp_bundles``, ``leray.exactlinalg`` and the ``leray.cli`` driver.
"""
