"""The forced-rebuild session replay: the oracle of the re-read path.

After a live mutation, ``PackageService._ensure_fresh`` replays an open
session onto the new epoch.  It skips the replay's rebuild when
``PackageService._rereadable`` proves the rebuild would return the
session's base package with current costs, and re-reads the base's
rows from the current dataset instead.  :class:`RebuildingService`
never skips it: every replay rebuilds the origin request against the
current entry, as every replay did before the re-read path existed.
Its replies are what the re-read path must reproduce byte for byte.
"""

from __future__ import annotations

from repro.service import PackageService


class RebuildingService(PackageService):
    """A ``PackageService`` whose every session replay rebuilds."""

    @staticmethod
    def _rereadable(session, current) -> bool:
        return False
