"""Completion backends: an HTTP chat-completion client and an offline mock.

The wire format is the common chat-completion JSON shape: request
``{model, messages: [{role, content}, ...], temperature, top_p}``, response
``choices[0].message.content``. The API key is read from an environment
variable, never from configuration files. ``requests`` is imported when an
``HttpChatAdapter`` is built, so mock and offline runs never load it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import AdapterError
from .decode import DecodingConfig

if TYPE_CHECKING:
    import requests

DEFAULT_TIMEOUT_SECONDS = 120.0
TRANSPORT_RETRIES = 2


class LlmAdapter(ABC):
    """Stateless completion function: (system_text, user_text, config) -> text.

    Implementations must be safe to call from multiple threads at once and
    must not carry memory between calls.
    """

    @abstractmethod
    def complete(self, system_text: str, user_text: str, config: DecodingConfig) -> str:
        raise NotImplementedError


def read_responses(path: str | Path) -> list[str]:
    """Scripted responses from a JSON array (.json) or JSON-lines file.

    Raises ValueError unless the file parses to a non-empty list of strings.
    """
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    try:
        if p.suffix == ".jsonl":
            responses = [json.loads(line) for line in text.splitlines() if line.strip()]
        else:
            responses = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p} is not valid JSON: {exc}") from None
    return _check_responses(responses, str(p))


def _check_responses(responses: Any, source: str) -> Sequence[str]:
    if not (isinstance(responses, (list, tuple)) and responses
            and all(isinstance(r, str) for r in responses)):
        raise ValueError(f"{source} must contain a non-empty list of response strings")
    return responses


class MockAdapter(LlmAdapter):
    """Deterministic scripted adapter for offline runs.

    Draws are counted per prompt text under a lock: each distinct
    ``(system_text, user_text)`` is answered ``script[0], script[1], ...``
    in its own call order, cycling through the script, whatever other
    prompts are sent before or between its calls. Concurrent samples of one
    prompt may take its replies in either order, so which sample index
    receives which reply can vary, but not the replies the prompt receives.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(_check_responses(responses, "MockAdapter responses"))
        self._lock = threading.Lock()
        self._draws: dict[bytes, int] = {}
        self.calls = 0

    def complete(self, system_text: str, user_text: str, config: DecodingConfig) -> str:
        key = hashlib.sha256(f"{system_text}\0{user_text}".encode("utf-8")).digest()
        with self._lock:
            draw = self._draws.get(key, 0)
            self._draws[key] = draw + 1
            self.calls += 1
        return self._responses[draw % len(self._responses)]


class HttpChatAdapter(LlmAdapter):
    """Chat-completion client with timeout and exponential backoff.

    Transport errors, throttling (429) and server errors (5xx) are retried
    up to ``TRANSPORT_RETRIES`` times, waiting 1 s, 2 s, ... between tries;
    any other non-200 status raises at once, as does a reply whose ``content``
    is not a string (a refusal or tool call sends ``null``). The endpoint
    must be an http(s) URL, ``model`` and ``api_key_env`` non-empty strings
    and ``timeout_seconds`` above 0; anything else raises ValueError here,
    before any call is made. Each calling thread posts through its own
    ``requests.Session`` (kept for the thread's lifetime, so its keep-alive
    connection is reused), unless a ``session`` is given, which every thread
    then shares.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
        session: requests.Session | None = None,
    ):
        if not (isinstance(endpoint, str) and endpoint.startswith(("http://", "https://"))):
            raise ValueError(f"endpoint must start with http:// or https://, got {endpoint!r}")
        for key, value in (("model", model), ("api_key_env", api_key_env)):
            if not (isinstance(value, str) and value):
                raise ValueError(f"{key} must be a non-empty string, got {value!r}")
        if not timeout_seconds > 0:
            raise ValueError(f"timeout_seconds must be > 0, got {timeout_seconds!r}")
        import requests  # noqa: F401  (loaded with the adapter, not in its first timed call)

        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout_seconds = timeout_seconds
        self._shared_session = session
        self._local = threading.local()

    def _session(self) -> requests.Session:
        if not hasattr(self._local, "session"):
            import requests

            self._local.session = self._shared_session or requests.Session()
        return self._local.session

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, system_text: str, user_text: str, config: DecodingConfig) -> str:
        import requests

        messages = []
        if system_text:
            messages.append({"role": "system", "content": system_text})
        messages.append({"role": "user", "content": user_text})
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": config.temperature,
            "top_p": config.top_p,
        }
        last_error: Exception | None = None
        for attempt in range(TRANSPORT_RETRIES + 1):
            if attempt:
                time.sleep(2.0 ** (attempt - 1))
            try:
                response = self._session().post(
                    self.endpoint,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout_seconds,
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = AdapterError(response.status_code, response.text[:500])
                continue
            if response.status_code != 200:
                raise AdapterError(response.status_code, response.text[:500])
            try:
                content = response.json()["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"content is {content!r}, not a string")
                return content
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise AdapterError(response.status_code, f"malformed response body: {exc}") from exc
        if isinstance(last_error, AdapterError):
            raise last_error
        raise AdapterError(None, f"transport failed after retries: {last_error}")


class TranscriptWriter:
    """JSON-lines log of raw requests and responses, for replay.

    The file is emptied when the writer is created, so it holds the records
    of this writer only. Each record is one line, written through one open
    handle and flushed before ``record`` returns; ``close`` releases it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "w", encoding="utf-8")

    def record(self, kind: str, payload: dict[str, Any]) -> None:
        entry = {"timestamp": time.time(), "kind": kind, "payload": payload}
        line = json.dumps(entry, ensure_ascii=False)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            self._file.close()
