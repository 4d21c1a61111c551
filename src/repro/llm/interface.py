"""The chat-completion interface shared by real and simulated LLMs."""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ChatMessage:
    """One chat message with an OpenAI-style role."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"Unknown chat role {self.role!r}")


@dataclass(frozen=True)
class CompletionParams:
    """Sampling parameters mirroring ``openai.ChatCompletion.create``.

    The paper uses ``temperature=0.0`` everywhere, ``frequency_penalty`` and
    ``presence_penalty`` of ``0.0`` for annotation generation and ``-0.5`` for
    the main GRED pipeline (Section 5.1).
    """

    temperature: float = 0.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    model: str = "simulated-gpt-3.5-turbo"


@dataclass
class CompletionRecord:
    """One logged request/response pair."""

    messages: List[ChatMessage]
    params: CompletionParams
    response: str
    behaviour: str = ""


#: Completions :class:`CompletionLog` keeps in full; older ones are counted only.
LOG_RECORDS_KEPT = 256


class CompletionLog:
    """Counts every completion made through a model and keeps the latest ones.

    ``len()`` and :meth:`by_behaviour` count every completion ever appended;
    :attr:`records` holds only the most recent :data:`LOG_RECORDS_KEPT`, so the
    log's memory stays bounded however many questions a model serves.
    """

    def __init__(self) -> None:
        self.records: Deque[CompletionRecord] = deque(maxlen=LOG_RECORDS_KEPT)
        self._counts: Dict[str, int] = {}
        self._total = 0
        self._lock = threading.Lock()

    def append(self, record: CompletionRecord) -> None:
        with self._lock:
            self.records.append(record)
            self._counts[record.behaviour] = self._counts.get(record.behaviour, 0) + 1
            self._total += 1

    def __len__(self) -> int:
        return self._total

    def by_behaviour(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class ChatModel(abc.ABC):
    """Anything that can answer a list of chat messages with text."""

    @abc.abstractmethod
    def complete(
        self, messages: Sequence[ChatMessage], params: Optional[CompletionParams] = None
    ) -> str:
        """Return the assistant response for ``messages``."""

    def complete_text(self, system: str, user: str, params: Optional[CompletionParams] = None) -> str:
        """Convenience wrapper for a (system, user) prompt pair."""
        return self.complete(
            [ChatMessage(role="system", content=system), ChatMessage(role="user", content=user)],
            params=params,
        )
