"""Completion backends: an HTTP chat-completion client and an offline mock.

The wire format is the common chat-completion JSON shape: request
``{model, messages: [{role, content}, ...], temperature, top_p}``, response
``choices[0].message.content``. The API key is read from an environment
variable, never from configuration files. ``requests`` is imported when an
``HttpChatAdapter`` is built, so mock and offline runs never load it.
"""

from __future__ import annotations

import json
import math
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

# json.dumps(..., ensure_ascii=False), without building an encoder per call
_encode = json.JSONEncoder(ensure_ascii=False).encode


class LlmAdapter(ABC):
    """Stateless completion function: (system_text, user_text, config) -> text.

    Implementations must be safe to call from multiple threads at once and
    must not carry memory between calls.
    """

    @abstractmethod
    def complete(self, system_text: str, user_text: str, config: DecodingConfig) -> str:
        raise NotImplementedError

    def draw(self, system_text: str, user_text: str, config: DecodingConfig,
             sample_index: int, attempt: int) -> str:
        """Attempt ``attempt`` (from 1) of sample ``sample_index`` of a prompt: the call
        sampling makes. By default a fresh :meth:`complete`; a scripted adapter answers by
        the sample and attempt instead, so its replies do not depend on call order."""
        return self.complete(system_text, user_text, config)


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

    Attempt ``a`` (from 1) of sample ``i`` of any prompt is answered with
    script entry ``(a - 1) * num_samples + i``, cycling through the script, so
    every sample receives the same replies whatever the order or the threads
    of the calls; ``complete`` answers as the first attempt of sample 0. The
    adapter holds no state.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(_check_responses(responses, "MockAdapter responses"))

    def complete(self, system_text: str, user_text: str, config: DecodingConfig) -> str:
        return self.draw(system_text, user_text, config, 0, 1)

    def draw(self, system_text: str, user_text: str, config: DecodingConfig,
             sample_index: int, attempt: int) -> str:
        entry = (attempt - 1) * config.num_samples + sample_index
        return self._responses[entry % len(self._responses)]


class HttpChatAdapter(LlmAdapter):
    """Chat-completion client with timeout and exponential backoff.

    Transport errors, throttling (429) and server errors (5xx) are retried
    up to ``TRANSPORT_RETRIES`` times, waiting 1 s, 2 s, ... between tries;
    any other non-200 status raises at once, as does a reply whose ``content``
    is not a string (a refusal or tool call sends ``null``). The endpoint
    must be an http(s) URL, ``model`` and ``api_key_env`` non-empty strings
    and ``timeout_seconds`` finite and > 0; anything else raises ValueError here,
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
        if not 0 < timeout_seconds < math.inf:
            raise ValueError(f"timeout_seconds must be finite and > 0, got {timeout_seconds!r}")
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


def json_fields(fields: dict[str, Any]) -> str:
    """The members of ``fields`` as JSON text without the enclosing braces, the
    form in which :meth:`TranscriptWriter.record` takes fields shared by many records."""
    return _encode(fields)[1:-1]


class TranscriptWriter:
    """JSON-lines log of raw requests and responses, for replay.

    The file is emptied when the writer is created, so it holds the records
    of this writer only. Each record is one line,
    ``json.dumps({"timestamp", "kind", "payload"}, ensure_ascii=False)``,
    written through one open handle as one unbuffered write of its UTF-8
    bytes (a short write is retried), so it is in the file when ``record``
    returns; ``close`` releases the handle. Fields that many records repeat,
    such as a prompt's text, can be encoded once with :func:`json_fields`
    and passed to every ``record`` call.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "wb", buffering=0)

    def record(self, kind: str, payload: dict[str, Any], before: str = "", after: str = "") -> None:
        """Append one record whose payload holds the ``before`` fields, then ``payload``'s,
        then the ``after`` fields; ``before`` and ``after`` are :func:`json_fields` text."""
        fields = ", ".join(part for part in (before, _encode(payload)[1:-1], after) if part)
        # json writes a float as its repr
        line = f'{{"timestamp": {time.time()!r}, "kind": {_encode(kind)}, "payload": {{{fields}}}}}\n'
        data = memoryview(line.encode("utf-8"))
        with self._lock:
            while data:
                data = data[self._file.write(data):]

    def close(self) -> None:
        with self._lock:
            self._file.close()
