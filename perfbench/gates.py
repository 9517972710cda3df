"""Correctness gates: each compares an output with a reference built in set-up.

A gate that fails raises :class:`~common.GateFailure`; the run then
prints no numbers (see ``run.py``).  The three references are the
``--jobs 1 --schedule registry`` report text, the serial ingest record
logs, and the in-process :class:`PredictionService` payloads.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from common import GateFailure

#: The one field of a served response that is wall-clock, not model output.
_LATENCY_FIELD = re.compile(rb', "latency_s": [^,}]*')
_ID_FIELD = re.compile(rb'^\{"id": ("(?:[^"\\]|\\.)*")')
_ID_MARK = "\x00id\x00"


def check_report(reference: bytes, output: bytes, label: str) -> None:
    """A report must equal the set-up reference byte for byte."""
    if output != reference:
        raise GateFailure(
            f"{label} report differs from the --jobs 1 --schedule registry reference"
        )


def check_records(
    serial_dir: Path, sharded_dir: Path, topics: Iterable[str], label: str
) -> None:
    """Every building's record log must equal the serial reference's."""
    from repro.streaming import verify_parity

    mismatched = verify_parity(sharded_dir, serial_dir, tuple(topics))
    if mismatched:
        raise GateFailure(
            f"{label}: record logs of {', '.join(mismatched)} differ from run_serial"
        )


def check_ingest_report(report, expected_ticks: int, label: str) -> None:
    """A timed ingest run must complete, without restarts, every tick."""
    if not report.completed:
        raise GateFailure(f"{label}: run_ingest did not complete")
    if report.restarts:
        raise GateFailure(f"{label}: {report.restarts} shard restarts")
    if report.ticks != expected_ticks:
        raise GateFailure(
            f"{label}: {report.ticks} ticks processed, the plan has {expected_ticks}"
        )


class ResponseChecker:
    """Byte comparison of served lines with the in-process service's.

    ``templates`` maps a request key (see :class:`client.RequestFormat`)
    to the service's payload for that request, serialized the way the
    server serializes it, with the id left as a marker.  A served line is compared after its
    ``latency_s`` field is cut out of both sides.
    """

    def __init__(self, templates: Dict[str, bytes]) -> None:
        self._parts: Dict[str, Tuple[bytes, bytes]] = {}
        for key, template in templates.items():
            stripped = _LATENCY_FIELD.sub(b"", template, count=1)
            marker = json.dumps(_ID_MARK).encode()
            head, sep, tail = stripped.partition(marker)
            if not sep:
                raise ValueError("template carries no id marker")
            self._parts[key] = (head, tail)

    @staticmethod
    def request_id(line: bytes) -> Optional[str]:
        """The id of a served line, or ``None`` for an unparseable one."""
        match = _ID_FIELD.match(line)
        return json.loads(match.group(1)) if match else None

    def matches(self, line: bytes, request_id: str, key: str) -> bool:
        head, tail = self._parts[key]
        expected = head + json.dumps(request_id).encode() + tail
        return _LATENCY_FIELD.sub(b"", line.rstrip(b"\r\n"), count=1) == expected


def service_templates(pipeline, fmt, max_horizon: int) -> Dict[str, bytes]:
    """What the single-process service answers, one template per request key.

    The server writes ``json.dumps`` of the worker's ``to_payload()``;
    the template is built the same way from an in-process
    :class:`PredictionService` restored from the same snapshot, for each
    request ``fmt`` sends.
    """
    from repro.streaming import PredictionService, ServiceConfig, build_request

    service = PredictionService(
        pipeline, ServiceConfig(max_horizon_ticks=max_horizon)
    )
    held = pipeline.estimator.last_inputs()
    templates: Dict[str, bytes] = {}
    for key in fmt.keys():
        request = build_request(fmt.payload(_ID_MARK, key), held, _ID_MARK, max_horizon)
        payload = service.handle(request).to_payload()
        templates[key] = json.dumps(payload).encode()
    return templates
