"""Each correctness gate refuses to report numbers when a reference is off by one byte.

The workloads run for real, shrunk through their module constants so the
whole file takes about a minute:

    python3 -m pytest perfbench/tests -q

For each of the three references (the report, a record log, a serve
payload) there is a control run that reports numbers, and a run whose
reference has one byte flipped, which must print ``correct: false``, no
metrics, and exit 1.
"""

from __future__ import annotations

import json

import pytest

import ingest_wl
import report_wl
import run
import serve_wl


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _check(code: int, result: dict, flipped: bool) -> None:
    if flipped:
        assert code == 1
        assert result["correct"] is False
        assert result["metrics"] == {}
    else:
        assert code == 0
        assert result["correct"] is True
        assert result["metrics"] and all(
            isinstance(m["value"], float) for m in result["metrics"].values()
        )


@pytest.mark.parametrize("flipped", [False, True])
def test_report_gate(monkeypatch, capsys, flipped):
    monkeypatch.setattr(report_wl, "DAYS", 7.0)
    monkeypatch.setattr(report_wl, "MIN_WARM", 1)
    make_reference = report_wl.make_reference

    def reference(seed, work):
        text, model = make_reference(seed, work)
        return (_flip(text, len(text) // 2) if flipped else text), model

    monkeypatch.setattr(report_wl, "make_reference", reference)
    code = run.main(["--workload", "report", "--seed", "3", "--seconds", "1", "--trace", "0"])
    _check(code, _last_json(capsys), flipped)


@pytest.mark.parametrize("flipped", [False, True])
def test_record_log_gate(monkeypatch, capsys, flipped):
    monkeypatch.setattr(ingest_wl, "DAYS", 0.5)
    monkeypatch.setattr(ingest_wl, "N_FLEETS", 1)
    serial_reference = ingest_wl.serial_reference

    def reference(plan, work):
        out = serial_reference(plan, work)
        if flipped:
            log = sorted(out.glob("*.records.jsonl"))[0]
            log.write_bytes(_flip(log.read_bytes(), 10))
        return out

    monkeypatch.setattr(ingest_wl, "serial_reference", reference)
    code = run.main(["--workload", "ingest", "--seed", "3", "--seconds", "1", "--trace", "0"])
    _check(code, _last_json(capsys), flipped)


@pytest.mark.parametrize("flipped", [False, True])
def test_serve_payload_gate(monkeypatch, capsys, flipped):
    monkeypatch.setattr(serve_wl, "MIN_REQUESTS", 200)
    monkeypatch.setattr(serve_wl, "WARMUP_REQUESTS", 10)
    service_templates = serve_wl.service_templates

    def templates(*args, **kwargs):
        made = service_templates(*args, **kwargs)
        if flipped:
            for key, text in made.items():
                made[key] = _flip(text, text.index(b'"predictions": [[') + 18)
        return made

    monkeypatch.setattr(serve_wl, "service_templates", templates)
    code = run.main(["--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", "1"])
    _check(code, _last_json(capsys), flipped)
