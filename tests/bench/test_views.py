"""One run, many views: ``repro <view>`` prints exactly what ``GET
/<view>`` serves, for every row of ``VIEWS``.

The test walks the table, so a new view is covered by its own row's
``example`` query with no edit here.  The pins are the sha256 of each
body as it was served before the table existed (``profile`` less the
retired ``recovery`` column).
"""

import asyncio
import hashlib
from urllib.parse import parse_qsl

from repro import api
from repro.bench.views import REQUIRED, VIEWS
from repro.cli import main
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import read_response, render_request

PINS = {
    "figure":
        "45aa84f96ee2e22ecd6f0e8ce9c68bf9511ab2e1b523d3f68be7b633a5b8b843",
    "profile":
        "1239f342b4610c46a5d956481ee65b0dbab4bdfab8eea0b50e18daec6b8882d9",
    "trace":
        "0d1396173bc2477da7cf404c66ea030119e55bb4cb4ae8fde08435ce8c86f918",
}


def argv_of(name, view):
    """``repro <name> ...`` spelling the row's example query: required
    names are positionals, every other one a flag."""
    leaves = api.leaves(api.RunConfig)
    required = {p.name for p in view.params if p.default is REQUIRED} | {
        f for f in view.fields if leaves[f].default is REQUIRED}
    argv = [name]
    for key, value in parse_qsl(view.example):
        argv += [value] if key in required else [f"--{key}", value]
    return argv


def served(tmp_path, targets):
    async def scenario():
        server = ReproServer(ServeConfig(port=0, workers=1),
                             cache_dir=str(tmp_path))
        await server.start(prewarm=False)
        try:
            bodies = []
            for target in targets:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(render_request("GET", target))
                await writer.drain()
                response = await asyncio.wait_for(read_response(reader), 60)
                writer.close()
                assert response.status == 200, (target, response.body)
                bodies.append(response.body)
            return bodies
        finally:
            await server.stop()

    return asyncio.run(scenario())


def test_every_view_prints_what_it_serves(tmp_path, capsys):
    assert set(PINS) <= set(VIEWS)
    bodies = served(tmp_path, [f"/{name}?{view.example}"
                               for name, view in VIEWS.items()])
    for (name, view), body in zip(VIEWS.items(), bodies):
        assert main(argv_of(name, view)) == 0
        assert capsys.readouterr().out == body.decode() + "\n", name
        if name in PINS:
            assert hashlib.sha256(body).hexdigest() == PINS[name], name
