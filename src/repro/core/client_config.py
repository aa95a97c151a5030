"""Client-side configuration for each SeeMoRe mode.

The paper's client behaviour differs per mode:

* **Lion** — send to the trusted primary and accept its single signed
  reply; after a timeout, broadcast to all replicas and accept either one
  reply from the private cloud or m+1 matching replies from the public
  cloud.
* **Dog** — send to the trusted primary; accept 2m+1 matching replies from
  the proxies; after a timeout, retransmit to the proxies and accept m+1
  matching replies.
* **Peacock** — send to the untrusted primary; accept m+1 matching replies
  from the proxies (PBFT's rule); retransmission goes to the proxies.
"""

from __future__ import annotations

from typing import List

from repro.core.config import SeeMoReConfig
from repro.core.modes import Mode
from repro.smr.client import ClientConfig, ReplyRule


def _mode_from_id(mode_id: int, fallback: Mode) -> Mode:
    try:
        return Mode(mode_id)
    except ValueError:
        return fallback


def client_config_for_mode(
    config: SeeMoReConfig,
    mode: Mode,
    request_timeout: float = 0.2,
) -> ClientConfig:
    """Build the :class:`~repro.smr.client.ClientConfig` for ``mode``.

    The returned config is *mode aware*: if the deployment later switches
    modes dynamically, the client follows the mode reported in replies and
    applies that mode's reply quorum and primary selection.
    """
    m = config.byzantine_tolerance

    def request_targets(view: int, mode_id: int) -> List[str]:
        current = _mode_from_id(mode_id, mode)
        return [config.primary_of_view(view, current)]

    def retransmit_targets(view: int, mode_id: int) -> List[str]:
        current = _mode_from_id(mode_id, mode)
        if current is Mode.LION:
            return list(config.all_replicas)
        return config.proxies_of_view(view, current)

    # The paper's rule, stated once.  "One reply" in Lion only ever applied
    # to the private cloud, so its public-cloud quorum is m+1 outright.
    no_one = frozenset()
    rules = {
        int(Mode.LION): ReplyRule(frozenset(config.private_replicas), m + 1, m + 1),
        int(Mode.DOG): ReplyRule(no_one, 2 * m + 1, m + 1),
        int(Mode.PEACOCK): ReplyRule(no_one, m + 1, m + 1),
    }

    return ClientConfig(
        request_targets=request_targets,
        rules=rules,
        members=frozenset(config.all_replicas),
        retransmit_targets=retransmit_targets,
        request_timeout=request_timeout,
        initial_mode=int(mode),
    )
