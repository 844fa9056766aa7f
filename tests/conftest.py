"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.corpus import TrueParameters, curated_scenario
from repro.kb import Entity, KnowledgeBase
from repro.nlp import Annotator, DependencyParser
from repro.serve import AsyncReproServer


class AsyncHarness:
    """:class:`AsyncReproServer` on a dedicated event-loop thread.

    Binds an ephemeral port on 127.0.0.1; ``url`` is the base URL.
    Use as a context manager or call :meth:`close`.
    """

    def __init__(self, service):
        self.service = service
        self.server = AsyncReproServer(service)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        self.port = self.server.port
        self.url = f"http://127.0.0.1:{self.port}"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
        finally:
            self.loop.close()

    async def _main(self):
        self._stop = asyncio.Event()
        await self.server.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        self.server.close_listener()
        self.server.close_connections()
        await self.server.wait_closed()

    def close(self):
        self.loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture()
def small_kb() -> KnowledgeBase:
    """A handful of entities across types, with one ambiguous alias.

    ``Buffalo`` names both a city and an animal — the disambiguation
    regression case from Section 2.
    """
    return KnowledgeBase(
        [
            Entity.create("kitten", "animal"),
            Entity.create("snake", "animal"),
            Entity.create("tiger", "animal"),
            Entity.create("San Francisco", "city", population=870_000.0),
            Entity.create("Palo Alto", "city", population=65_000.0),
            Entity.create("Chicago", "city", population=2_700_000.0),
            Entity.create("soccer", "sport"),
            Entity.create("golf", "sport"),
            Entity(
                id="/city/buffalo",
                name="Buffalo",
                entity_type="city",
                attributes={"population": 255_000.0},
            ),
            Entity(
                id="/animal/buffalo",
                name="buffalo",
                entity_type="animal",
            ),
        ]
    )


@pytest.fixture()
def parser() -> DependencyParser:
    return DependencyParser()


@pytest.fixture()
def annotator(small_kb: KnowledgeBase) -> Annotator:
    return Annotator(small_kb)


@pytest.fixture()
def cute_scenario(small_kb: KnowledgeBase):
    """Tiny curated scenario: which of three animals are cute.

    The ambiguous ``buffalo`` entity is deliberately excluded — its
    bare mentions are (correctly) dropped by the disambiguating
    linker, which would break exact count-recovery assertions.
    """
    animals = [
        entity
        for entity in small_kb.entities_of_type("animal")
        if entity.name != "buffalo"
    ]
    truths = {
        "cute": {"kitten": True, "snake": False, "tiger": False}
    }
    params = {
        "cute": TrueParameters(
            agreement=0.9, rate_positive=30.0, rate_negative=5.0
        )
    }
    return curated_scenario(
        "test-cute", animals, truths, params
    )
