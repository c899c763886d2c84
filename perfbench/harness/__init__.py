"""The end-to-end and per-layer benchmark of the attribution service.

Modules: :mod:`.oracle` (independent sqlite3 + exact Banzhaf checker),
:mod:`.workloads` (seeded inputs and request streams), :mod:`.prepare`
(inputs and expected values, made in a child process), :mod:`.hostspeed`
(the reference kernel that scales times to one host speed),
:mod:`.tracing` (span recorder around the layers' public calls),
:mod:`.stats` (percentiles and spreads) and :mod:`.runner` (closed and
open loops).
"""
