import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import requests

from castlab import (
    DecodingConfig,
    LlmPromptForecaster,
    MockAdapter,
    PromptBundle,
    ScalingConfig,
    TranscriptWriter,
    build_prompt,
    sample_forecasts,
    submit_samples,
)
from castlab.errors import AdapterError, AllSamplesFailedError
from castlab.llm import adapters, sampling
from castlab.llm.adapters import HttpChatAdapter, LlmAdapter, read_responses

IDENTITY = ScalingConfig(decimals=0)
BUNDLE = build_prompt(np.array([1.0, 2.0, 3.0, 4.0]), 3, "llmtime_chat", IDENTITY)


class CountingMock(MockAdapter):
    """A MockAdapter that counts the calls it serves."""

    def __init__(self, responses):
        super().__init__(responses)
        self.calls = 0
        self._lock = threading.Lock()

    def draw(self, *args):
        with self._lock:
            self.calls += 1
        return super().draw(*args)


def _sample(adapter, bundles, cfg, executor=None, **transcript):
    """Submit then collect, on ``executor`` or on one worker that runs the tasks in order."""
    with ThreadPoolExecutor(1) as own:
        return sample_forecasts(submit_samples(adapter, bundles, cfg, executor or own, **transcript), cfg)


def test_mock_scripted_five_samples():
    adapter = MockAdapter(["1, 2, 3"])
    cfg = DecodingConfig(num_samples=5, max_attempts_per_sample=1)
    results = _sample(adapter, [BUNDLE], cfg)[0]
    assert len(results) == 5
    for r in results:
        assert r.values.tolist() == [1.0, 2.0, 3.0]


def test_mock_retry_after_garbage():
    adapter = MockAdapter(["no numbers here", "1, 2, 3"])
    cfg = DecodingConfig(num_samples=1, max_attempts_per_sample=2)
    results = _sample(adapter, [BUNDLE], cfg)[0]
    assert len(results) == 1
    assert results[0].attempts == 2
    assert results[0].values.tolist() == [1.0, 2.0, 3.0]


def test_all_samples_failed():
    adapter = CountingMock(["garbage"])
    cfg = DecodingConfig(num_samples=3, max_attempts_per_sample=2)
    with pytest.raises(AllSamplesFailedError):
        _sample(adapter, [BUNDLE], cfg)
    assert adapter.calls == 6


def test_reproducible_with_deterministic_adapter():
    cfg = DecodingConfig(num_samples=4, max_attempts_per_sample=1)
    runs = []
    for _ in range(2):
        adapter = MockAdapter(["5, 6, 7", "5, 6, 7", "5, 6, 7", "5, 6, 7"])
        results = _sample(adapter, [BUNDLE], cfg)[0]
        runs.append([r.values.tolist() for r in results])
    assert runs[0] == runs[1]


def test_bundles_share_one_queue_and_come_back_grouped_in_sample_order(tmp_path):
    other = build_prompt(np.array([10.0, 20.0, 30.0, 40.0]), 3, "llmtime_chat", IDENTITY)
    adapter = CountingMock(["1, 2, 3", "4, 5, 6", "7, 8, 9"])
    transcript = TranscriptWriter(tmp_path / "t.jsonl")
    cfg = DecodingConfig(num_samples=4, max_attempts_per_sample=1)
    with ThreadPoolExecutor(3) as pool:
        results = _sample(adapter, [BUNDLE, other], cfg, pool, transcript=transcript)
    transcript.close()
    assert [[r.sample_index for r in rs] for rs in results] == [[0, 1, 2, 3]] * 2
    # each prompt is served the script from its start, whichever samples ran first
    for rs in results:
        assert sorted(r.values.tolist() for r in rs) == [[1, 2, 3], [1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert adapter.calls == 8
    records = [json.loads(line)["payload"] for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    channels = {bundle: {r["channel"] for r in records if r["user_text"] == bundle.user_text}
                for bundle in (BUNDLE, other)}
    assert channels == {BUNDLE: {0}, other: {1}}


def test_a_bundle_without_successes_fails_the_call_after_every_task_ends():
    good = build_prompt(np.array([10.0, 20.0, 30.0, 40.0]), 3, "llmtime_chat", IDENTITY)
    finished = []

    class SlowPerPromptAdapter(LlmAdapter):
        def complete(self, system_text, user_text, config):
            time.sleep(0.01)
            finished.append(user_text)
            return "1, 2, 3" if user_text == good.user_text else "garbage"

    adapter = SlowPerPromptAdapter()
    cfg = DecodingConfig(num_samples=3, max_attempts_per_sample=2)
    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(AllSamplesFailedError, match=r"channel\(s\) \[1\]"):
            _sample(adapter, [good, BUNDLE], cfg, pool)
        # nothing was left in flight: every call had returned before the error
        calls = len(finished)
        time.sleep(0.05)
    assert calls == len(finished) == 3 + 3 * 2


def test_all_samples_failed_on_an_executor():
    adapter = CountingMock(["garbage"])
    cfg = DecodingConfig(num_samples=3, max_attempts_per_sample=2)
    with ThreadPoolExecutor(2) as pool, pytest.raises(AllSamplesFailedError):
        _sample(adapter, [BUNDLE], cfg, pool)
    assert adapter.calls == 6


def test_partial_failures_keep_successes():
    adapter = MockAdapter(["bad", "bad", "1, 2, 3"])  # cycles
    cfg = DecodingConfig(num_samples=2, max_attempts_per_sample=3)
    results = _sample(adapter, [BUNDLE], cfg)[0]
    assert 1 <= len(results) <= 2
    for r in results:
        assert r.values.tolist() == [1.0, 2.0, 3.0]


def test_transcript_records_exchanges(tmp_path):
    path = tmp_path / "transcript.jsonl"
    path.write_text('{"left": "by an earlier run"}\n')
    transcript = TranscriptWriter(path)
    adapter = MockAdapter(["oops", "1, 2, 3"])
    cfg = DecodingConfig(num_samples=1, max_attempts_per_sample=2)
    _sample(adapter, [BUNDLE], cfg, transcript=transcript,
                     transcript_context={"forecaster": "f"})
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["payload"]["error"] is not None
    assert lines[1]["payload"]["error"] is None
    assert lines[1]["payload"]["response"] == "1, 2, 3"
    assert lines[1]["payload"]["scaling"] == {"scale": 1.0, "decimals": 0}
    assert lines[1]["payload"]["channel"] == 0
    assert lines[1]["payload"]["forecaster"] == "f"
    transcript.close()


def test_transcript_keeps_one_handle_and_flushes_each_record(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(adapters, "open", counting_open, raising=False)
    path = tmp_path / "transcript.jsonl"
    path.write_text("left by an earlier writer\n")
    writer = TranscriptWriter(path)
    assert path.read_text() == ""

    def work(thread):
        for i in range(50):
            writer.record("exchange", {"thread": thread, "i": i})

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # complete before close: the benchmark counts lines without closing its writer
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    got = sorted((line["payload"]["thread"], line["payload"]["i"]) for line in lines)
    assert got == [(t, i) for t in range(4) for i in range(50)]
    writer.close()
    assert opened == [path]


def _reference_line(timestamp, kind, payload):
    """A transcript line as TranscriptWriter wrote it before fields were encoded once per prompt."""
    return json.dumps({"timestamp": timestamp, "kind": kind, "payload": payload}, ensure_ascii=False) + "\n"


def test_transcript_lines_equal_one_json_dumps_of_each_record(tmp_path, monkeypatch):
    monkeypatch.setattr(adapters.time, "time", lambda: 1761000000.25)
    monkeypatch.setattr(sampling.time, "perf_counter", lambda: 7.5)  # latency 0.0

    class ErrorThenScript(LlmAdapter):
        def complete(self, system_text, user_text, config):
            raise AssertionError("sampling calls draw")

        def draw(self, system_text, user_text, config, sample_index, attempt):
            if attempt == 1:
                raise AdapterError(503, 'busy "now"\n')
            return ["no numbers − “here”", "1, 2, 3"][attempt - 2]

    bundles = [PromptBundle("ts_cot", 'say "hi"\nthen −', 'x −1, "2"\n\tüber\\ 3,', ScalingConfig(2.0, 1), 3),
               BUNDLE]
    path = tmp_path / "t.jsonl"
    transcript = TranscriptWriter(path)
    cfg = DecodingConfig(num_samples=2, max_attempts_per_sample=3)
    context = {"forecaster": "f “1”", "run": None}
    _sample(ErrorThenScript(), bundles, cfg, transcript=transcript, transcript_context=context)
    transcript.close()
    want = []
    for channel, bundle in enumerate(bundles):
        for index in range(2):
            for attempt, (raw, error) in enumerate(
                    [(None, str(AdapterError(503, 'busy "now"\n'))),
                     ("no numbers − “here”", "response contains no numbers"), ("1, 2, 3", None)], 1):
                payload = {
                    "style": bundle.style,
                    "system_text": bundle.system_text,
                    "user_text": bundle.user_text,
                    "scaling": {"scale": bundle.scaling.scale, "decimals": bundle.scaling.decimals},
                    "expected_count": bundle.expected_count,
                    "channel": channel,
                    "sample_index": index,
                    "attempt": attempt,
                    "response": raw,
                    "latency_seconds": 0.0,
                    "error": error,
                }
                want.append(_reference_line(1761000000.25, "completion", {**payload, **context}))
    assert path.read_bytes().decode("utf-8").splitlines(keepends=True) == want


def test_transcript_retries_a_short_write(tmp_path, monkeypatch):
    monkeypatch.setattr(adapters.time, "time", lambda: 5.0)

    class ShortWrites:
        """Takes at most 7 bytes per write, as a raw file may."""

        def __init__(self):
            self.data = bytearray()
            self.writes = 0

        def write(self, chunk):
            self.writes += 1
            self.data += bytes(chunk[:7])
            return min(len(chunk), 7)

        def close(self):
            pass

    writer = TranscriptWriter(tmp_path / "t.jsonl")
    writer._file.close()
    writer._file = fake = ShortWrites()
    payload = {"text": "“quoted” − ünïcode\n", "n": [1, 2.5, None]}
    writer.record("note", payload, before=adapters.json_fields({"a": "ä"}), after=adapters.json_fields({}))
    want = _reference_line(5.0, "note", {"a": "ä", **payload}).encode("utf-8")
    assert bytes(fake.data) == want and fake.writes == -(-len(want) // 7)


def test_mock_replays_json_and_jsonl_scripts(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(["1, 2, 3", "4, 5, 6"]))
    adapter = MockAdapter(read_responses(p))
    cfg = DecodingConfig(num_samples=3, max_attempts_per_sample=1)
    results = _sample(adapter, [BUNDLE], cfg)[0]
    # the script cycles once exhausted
    assert [r.values.tolist() for r in results] == [[1, 2, 3], [4, 5, 6], [1, 2, 3]]

    p2 = tmp_path / "r.jsonl"
    p2.write_text('"7, 8, 9"\n"10, 11, 12"\n')
    adapter2 = MockAdapter(read_responses(p2))
    results2 = _sample(adapter2, [BUNDLE], cfg)[0]
    assert [r.values.tolist() for r in results2] == [[7, 8, 9], [10, 11, 12], [7, 8, 9]]


@pytest.mark.parametrize("script", [[1, 2], "123", []])
def test_mock_rejects_a_script_that_is_not_a_list_of_strings(script):
    with pytest.raises(ValueError, match="MockAdapter responses"):
        MockAdapter(script)


def test_mock_serves_each_prompt_its_script_whatever_the_call_order():
    script = ["1", "2", "3", "4", "5"]
    cfg = DecodingConfig(num_samples=2, max_attempts_per_sample=3)
    prompts = [("sys", "a"), ("sys", "b"), ("", "a")]
    # attempt a of sample i is script entry (a - 1) * num_samples + i, cycling
    draws = {(p, i, a): script[((a - 1) * 2 + i) % 5] for p in prompts for i in (0, 1) for a in (1, 2, 3)}
    order = list(draws) * 7
    random.Random(4).shuffle(order)
    adapter = CountingMock(script)
    assert [adapter.draw(*p, cfg, i, a) for p, i, a in order] == [draws[d] for d in order]
    assert adapter.complete("sys", "a", cfg) == "1"  # sample 0's first attempt
    assert adapter.calls == len(order) + 1

    adapter = CountingMock(script)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            served = list(pool.map(lambda d: (d, adapter.draw(*d[0], cfg, *d[1:])), order * 20))
    finally:
        sys.setswitchinterval(interval)
    assert all(reply == draws[d] for d, reply in served)
    assert adapter.calls == len(order) * 20


@pytest.mark.parametrize("yield_in_call", [False, True])
def test_a_mock_forecast_does_not_depend_on_thread_scheduling(yield_in_call):
    """3,000 predicts of one warm forecaster, a fresh mock each: one sample spends both
    attempts on undecodable replies, so under a per-prompt call counter which sample
    dropped out, and so the forecast, depended on thread scheduling."""
    script = ["no numbers", "still none", "1, 2, 3, 4", "9, 9, 9, 9", "5, 5, 5, 5"]

    class YieldingMock(MockAdapter):
        def draw(self, *args):
            time.sleep(0)  # as any real latency would
            return super().draw(*args)

    mock = YieldingMock if yield_in_call else MockAdapter
    window = np.arange(12.0).reshape(-1, 1)
    f = LlmPromptForecaster(mock(script), decoding=DecodingConfig(num_samples=2, max_attempts_per_sample=2))
    forecasts = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3000):
            f.adapter = mock(script)
            forecasts.add(f.predict(window, 4).tobytes())
    finally:
        sys.setswitchinterval(interval)
        f.close()
    [forecast] = forecasts
    # samples 0 and 1 decode on their second attempt: entries 2 and 3
    [scaling] = ScalingConfig.per_channel(window)
    assert np.allclose(np.frombuffer(forecast), np.array([5.0, 5.5, 6.0, 6.5]) * scaling.scale, rtol=1e-15)


def test_http_adapter_wire_format(monkeypatch):
    captured = {}

    class FakeResponse:
        status_code = 200
        text = ""

        def json(self):
            return {"choices": [{"message": {"content": "1, 2, 3"}}]}

    class FakeSession:
        def post(self, url, json=None, headers=None, timeout=None):
            captured.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

    adapter = HttpChatAdapter(
        endpoint="http://example.invalid/v1/chat/completions",
        model="test-model",
        api_key_env="CASTLAB_TEST_KEY",
        session=FakeSession(),
    )
    cfg = DecodingConfig(temperature=1.0, top_p=0.8, num_samples=1)
    monkeypatch.setenv("CASTLAB_TEST_KEY", "sk-test-123")
    out = adapter.complete("sys", "user", cfg)
    assert out == "1, 2, 3"
    assert captured["headers"] == {"Content-Type": "application/json",
                                   "Authorization": "Bearer sk-test-123"}
    assert captured["payload"] == {
        "model": "test-model",
        "messages": [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"},
        ],
        "temperature": 1.0,
        "top_p": 0.8,
    }
    assert captured["timeout"] == 120.0
    # the key is read on every call, and an unset one sends no Authorization header
    monkeypatch.delenv("CASTLAB_TEST_KEY")
    adapter.complete("sys", "user", cfg)
    assert captured["headers"] == {"Content-Type": "application/json"}


@pytest.mark.parametrize("field,value", [("endpoint", "localhost:8000"), ("endpoint", 5),
                                         ("model", ""), ("api_key_env", 5), ("timeout_seconds", 0),
                                         ("timeout_seconds", -1.0), ("timeout_seconds", float("nan"))])
def test_http_adapter_rejects_a_bad_field_when_built(field, value):
    with pytest.raises(ValueError, match=field):
        HttpChatAdapter(**{"endpoint": "http://x.invalid", "model": "m", field: value})


def test_null_reply_content_is_an_adapter_error_and_the_attempt_is_retried():
    class NullThenNumbersSession:
        contents = [None, "1, 2, 3"]

        def post(self, url, json=None, headers=None, timeout=None):
            body = {"choices": [{"message": {"content": self.contents.pop(0)}}]}
            return type("Response", (), {"status_code": 200, "text": "", "json": lambda self: body})()

    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=NullThenNumbersSession())
    cfg = DecodingConfig(num_samples=1, max_attempts_per_sample=2)
    [[sample]] = _sample(adapter, [BUNDLE], cfg)
    assert sample.attempts == 2 and sample.values.tolist() == [1.0, 2.0, 3.0]


def test_http_adapter_keeps_one_session_per_thread(monkeypatch):
    class CountingSession:
        made = []

        def __init__(self):
            self.posters = []
            CountingSession.made.append(self)

        def post(self, url, json=None, headers=None, timeout=None):
            self.posters.append(threading.current_thread())
            return type("Response", (), {"status_code": 200, "text": "",
                                         "json": lambda self: {"choices": [{"message": {"content": "1"}}]}})()

    monkeypatch.setattr(requests, "Session", CountingSession)

    def call_from_two_threads(adapter):
        threads = [threading.Thread(target=lambda: [adapter.complete("", "u", DecodingConfig())
                                                    for _ in range(3)]) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return threads

    threads = call_from_two_threads(HttpChatAdapter(endpoint="http://x.invalid", model="m"))
    made = CountingSession.made
    assert len(made) == 2
    assert all(s.posters == [s.posters[0]] * 3 for s in made)
    assert {s.posters[0] for s in made} == set(threads)

    given = _ScriptedSession([200] * 6)
    CountingSession.made.clear()
    call_from_two_threads(HttpChatAdapter(endpoint="http://x.invalid", model="m", session=given))
    assert given.posts == 6 and CountingSession.made == []


def test_http_adapter_omits_empty_system_and_raises_on_status(monkeypatch):
    monkeypatch.setattr(adapters.time, "sleep", lambda seconds: None)

    class FakeResponse:
        status_code = 500
        text = "server exploded"

        def json(self):
            return {}

    class FakeSession:
        def post(self, url, json=None, headers=None, timeout=None):
            self.last = json
            return FakeResponse()

    session = FakeSession()
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    with pytest.raises(AdapterError) as err:
        adapter.complete("", "just numbers", DecodingConfig())
    assert err.value.status == 500
    assert session.last["messages"] == [{"role": "user", "content": "just numbers"}]


class _ScriptedSession:
    """Fake ``requests.Session`` answering posts from a list of status codes."""

    def __init__(self, statuses):
        self.statuses = list(statuses)
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        status = self.statuses.pop(0)
        body = {"choices": [{"message": {"content": "4, 5"}}]}
        return type("Response", (), {"status_code": status, "text": f"status {status}",
                                     "json": lambda self: body})()


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_adapter_backs_off_on_throttling_and_server_errors(monkeypatch, status):
    sleeps = []
    monkeypatch.setattr(adapters.time, "sleep", sleeps.append)
    session = _ScriptedSession([status, status, 200])
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    assert adapter.complete("", "u", DecodingConfig()) == "4, 5"
    assert session.posts == 3 and sleeps == [1.0, 2.0]

    sleeps.clear()
    session = _ScriptedSession([status] * (adapters.TRANSPORT_RETRIES + 1))
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    with pytest.raises(AdapterError) as err:
        adapter.complete("", "u", DecodingConfig())
    assert err.value.status == status
    assert session.posts == adapters.TRANSPORT_RETRIES + 1 and sleeps == [1.0, 2.0]


def test_http_adapter_raises_other_client_errors_at_once(monkeypatch):
    sleeps = []
    monkeypatch.setattr(adapters.time, "sleep", sleeps.append)
    session = _ScriptedSession([404, 200])
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    with pytest.raises(AdapterError) as err:
        adapter.complete("", "u", DecodingConfig())
    assert err.value.status == 404
    assert session.posts == 1 and sleeps == []


class _FailingSession(_ScriptedSession):
    """Raises ``error`` for the first ``failures`` posts, then answers 200."""

    def __init__(self, error, failures):
        super().__init__([200])
        self.error = error
        self.failures = failures

    def post(self, url, json=None, headers=None, timeout=None):
        if self.failures:
            self.failures -= 1
            self.posts += 1
            raise self.error("connection dropped")
        return super().post(url, json=json, headers=headers, timeout=timeout)


@pytest.mark.parametrize("error", [requests.ConnectionError, requests.Timeout])
def test_http_adapter_retries_transport_errors(monkeypatch, error):
    sleeps = []
    monkeypatch.setattr(adapters.time, "sleep", sleeps.append)
    session = _FailingSession(error, 2)
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    assert adapter.complete("", "u", DecodingConfig()) == "4, 5"
    assert session.posts == 3 and sleeps == [1.0, 2.0]

    sleeps.clear()
    session = _FailingSession(error, adapters.TRANSPORT_RETRIES + 1)
    adapter = HttpChatAdapter(endpoint="http://x.invalid", model="m", session=session)
    with pytest.raises(AdapterError, match="transport failed after retries") as err:
        adapter.complete("", "u", DecodingConfig())
    assert err.value.status is None
    assert session.posts == adapters.TRANSPORT_RETRIES + 1 and sleeps == [1.0, 2.0]
