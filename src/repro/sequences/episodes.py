"""WINEPI — frequent episodes in an event sequence (Mannila, Toivonen &
Verkamo, KDD 1995).

Unlike basket/sequence mining, the input is **one** long event stream —
(timestamp, event-type) pairs, the telecom-alarm setting of the paper.
An episode is frequent when it occurs in at least ``min_frequency`` of
all width-``window`` sliding windows:

* a **parallel** episode is a set of event types, all present in the
  window (order-free);
* a **serial** episode is a tuple of event types occurring in strictly
  increasing time order inside the window.

Mining is levelwise: candidate episodes are generated Apriori-style
(sub-episode frequency is anti-monotone over windows) and recognised
window-by-window.  Timestamps must be integers; windows slide by one
time unit, and the window count follows the paper: every window
overlapping the sequence counts, i.e. starts in
``[t_first - window + 1, t_last]``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.base import check_in_range
from ..core.exceptions import ValidationError

Event = Tuple[int, int]  # (timestamp, event type)
Episode = Tuple[int, ...]


class EventSequence:
    """A time-stamped event stream.

    Parameters
    ----------
    events:
        Iterable of ``(timestamp, event_type)`` pairs; timestamps are
        integers (simultaneous events allowed), event types are
        non-negative ints.

    Examples
    --------
    >>> seq = EventSequence([(1, 0), (2, 1), (5, 0)])
    >>> seq.span()
    (1, 5)
    >>> seq.occurrences(0)
    [1, 5]
    """

    def __init__(self, events):
        cleaned: List[Event] = []
        for time, event in events:
            if not isinstance(time, (int, np.integer)) or isinstance(time, bool):
                raise ValidationError(
                    f"timestamps must be ints, got {time!r}"
                )
            if not isinstance(event, (int, np.integer)) or isinstance(event, bool):
                raise ValidationError(
                    f"event types must be ints, got {event!r}"
                )
            if event < 0:
                raise ValidationError(f"event types must be >= 0, got {event}")
            cleaned.append((int(time), int(event)))
        cleaned.sort()
        self._events: Tuple[Event, ...] = tuple(cleaned)
        self._by_type: Dict[int, List[int]] = {}
        for time, event in self._events:
            self._by_type.setdefault(event, []).append(time)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def event_types(self) -> List[int]:
        """Distinct event types, ascending."""
        return sorted(self._by_type)

    def occurrences(self, event_type: int) -> List[int]:
        """Sorted timestamps at which ``event_type`` occurs."""
        return self._by_type.get(event_type, [])

    def span(self) -> Tuple[int, int]:
        """(first, last) timestamp; ValidationError when empty."""
        if not self._events:
            raise ValidationError("event sequence is empty")
        return self._events[0][0], self._events[-1][0]


@dataclass
class FrequentEpisodes:
    """Result of a WINEPI run."""

    frequencies: Dict[Episode, float]
    n_windows: int
    window: int
    min_frequency: float
    episode_type: str
    pass_stats: List = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frequencies)

    def __iter__(self) -> Iterator[Episode]:
        return iter(self.frequencies)

    def __contains__(self, episode: object) -> bool:
        return episode in self.frequencies

    def frequency(self, episode: Episode) -> float:
        """Fraction of windows containing ``episode``."""
        return self.frequencies[episode]

    def of_size(self, size: int) -> Dict[Episode, float]:
        """Episodes with exactly ``size`` events."""
        return {e: f for e, f in self.frequencies.items() if len(e) == size}

    def sorted_by_frequency(self) -> List[Tuple[Episode, float]]:
        return sorted(
            self.frequencies.items(), key=lambda kv: (-kv[1], kv[0])
        )


def winepi(
    sequence: EventSequence,
    window: int,
    min_frequency: float = 0.1,
    episode_type: str = "serial",
    max_size: Optional[int] = None,
) -> FrequentEpisodes:
    """Mine frequent episodes with sliding-window counting.

    Parameters
    ----------
    sequence:
        The event stream.
    window:
        Window width in time units (> 0).
    min_frequency:
        Minimum fraction of windows containing the episode, in [0, 1].
    episode_type:
        ``"serial"`` (ordered) or ``"parallel"`` (order-free).
    max_size:
        Cap on episode length.

    Examples
    --------
    >>> seq = EventSequence([(t, 0) for t in range(0, 40, 4)]
    ...                     + [(t + 1, 1) for t in range(0, 40, 4)])
    >>> result = winepi(seq, window=3, min_frequency=0.4,
    ...                 episode_type="serial")
    >>> (0, 1) in result
    True
    >>> (1, 0) in result
    False
    """
    check_in_range("window", window, 1, None)
    check_in_range("min_frequency", min_frequency, 0.0, 1.0)
    if episode_type not in ("serial", "parallel"):
        raise ValidationError(
            f"episode_type must be 'serial' or 'parallel', got {episode_type!r}"
        )
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    if len(sequence) == 0:
        return FrequentEpisodes({}, 0, window, min_frequency, episode_type)

    first, last = sequence.span()
    start_lo = first - window + 1
    start_hi = last  # inclusive
    n_windows = start_hi - start_lo + 1
    min_windows = max(1, int(np.ceil(min_frequency * n_windows)))

    # Per-type window-membership bitmaps: windows[s - start_lo] is True
    # when the window starting at s contains an occurrence of the type.
    type_masks: Dict[int, np.ndarray] = {}
    for event_type in sequence.event_types:
        mask = np.zeros(n_windows, dtype=bool)
        for t in sequence.occurrences(event_type):
            lo = max(t - window + 1, start_lo) - start_lo
            hi = min(t, start_hi) - start_lo
            mask[lo:hi + 1] = True
        type_masks[event_type] = mask

    frequencies: Dict[Episode, float] = {}
    frequent: List[Episode] = []
    for event_type, mask in sorted(type_masks.items()):
        count = int(mask.sum())
        if count >= min_windows:
            episode = (event_type,)
            frequencies[episode] = count / n_windows
            frequent.append(episode)

    size = 2
    while frequent and (max_size is None or size <= max_size):
        if episode_type == "parallel":
            candidates = _parallel_candidates(frequent)
        else:
            candidates = _serial_candidates(frequent)
        if not candidates:
            break
        next_frequent: List[Episode] = []
        for candidate in candidates:
            if episode_type == "parallel":
                count = _count_parallel(candidate, type_masks)
            else:
                count = _count_serial(
                    candidate, sequence, window, start_lo, n_windows
                )
            if count >= min_windows:
                frequencies[candidate] = count / n_windows
                next_frequent.append(candidate)
        frequent = next_frequent
        size += 1

    return FrequentEpisodes(
        frequencies, n_windows, window, min_frequency, episode_type
    )


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def _parallel_candidates(frequent: List[Episode]) -> List[Episode]:
    """Itemset-style join (parallel episodes are sets, kept sorted)."""
    from ..associations.candidates import apriori_gen

    return apriori_gen(sorted(frequent))


def _serial_candidates(frequent: List[Episode]) -> List[Episode]:
    """Sequence-style join: s1[1:] == s2[:-1]; repeats allowed."""
    frequent_set = set(frequent)
    by_prefix: Dict[Episode, List[Episode]] = {}
    for episode in frequent:
        by_prefix.setdefault(episode[:-1], []).append(episode)
    candidates = []
    for s1 in frequent:
        for s2 in by_prefix.get(s1[1:], ()):
            candidate = s1 + (s2[-1],)
            if all(
                candidate[:i] + candidate[i + 1:] in frequent_set
                for i in range(len(candidate))
            ):
                candidates.append(candidate)
    return sorted(set(candidates))


# ----------------------------------------------------------------------
# Recognition
# ----------------------------------------------------------------------
def _count_parallel(candidate: Episode, type_masks) -> int:
    mask = type_masks[candidate[0]].copy()
    for event_type in candidate[1:]:
        mask &= type_masks[event_type]
    return int(mask.sum())


def _count_serial(candidate, sequence, window, start_lo, n_windows) -> int:
    """Windows whose span holds a strictly time-ordered occurrence.

    For each window start s, greedily chain the earliest occurrences:
    t1 = first occurrence of e1 at time >= s, t2 = first occurrence of
    e2 at time > t1, ...; the window contains the episode iff the chain
    ends before s + window.  The greedy chain end is monotone in s, so
    a window is counted when chain_end(s) - s < window.
    """
    occurrence_lists = [sequence.occurrences(e) for e in candidate]
    if any(not occ for occ in occurrence_lists):
        return 0
    count = 0
    for offset in range(n_windows):
        s = start_lo + offset
        t_prev = s - 1
        ok = True
        for occ in occurrence_lists:
            idx = bisect.bisect_right(occ, t_prev)
            if idx == len(occ):
                ok = False
                break
            t_prev = occ[idx]
            if t_prev >= s + window:
                ok = False
                break
        if ok:
            count += 1
    return count


__all__ = ["EventSequence", "FrequentEpisodes", "winepi"]
