"""DLFM service daemons (paper Figure 5).

* :mod:`chown` — root-privileged file ownership/permission service.
* :mod:`copyd` — asynchronous archiving of newly linked files.
* :mod:`retrieved` — restore of archived files after point-in-time restore.
* :mod:`delete_group` — asynchronous unlinking of dropped tables' files.
* :mod:`gc` — metadata/backup-copy garbage collection.
* :mod:`upcall` — answers DLFF "is this file linked?" queries.
"""
