"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile``  — minic source to assembly listing
* ``run``      — compile and execute, with optional statistics
* ``disasm``   — compile and disassemble the linked image
* ``lint``     — static analysis of a program or the benchmark suite
* ``bench``    — run benchmark programs on several targets, one table
* ``faults``   — seeded fault-injection campaign over the suite
* ``targets``  — list compiler configurations
* ``cache``    — inspect or clear the persistent artifact cache
"""

from __future__ import annotations

import argparse
import sys

from .bench import get_benchmark, program_names
from .cc import (TARGETS, build_executable, compile_to_assembly,
                 get_target)
from .cc.target import MAIN_TARGETS
from .machine import (DEFAULT_FUEL, DEFAULT_MISS_PENALTY, MachineTimeout,
                      cycles_no_cache, normalized_cpi, run_executable)

#: ``repro run`` exit code when a watchdog stops the program
#: (mirrors coreutils ``timeout``).
EXIT_TIMEOUT = 124


def _add_target(parser):
    parser.add_argument("-t", "--target", default="d16",
                        choices=sorted(TARGETS),
                        help="compiler configuration (default %(default)s)")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def cmd_compile(args) -> int:
    assembly = compile_to_assembly(_read_source(args.file), args.target,
                                   include_runtime=not args.no_runtime,
                                   opt_level=args.opt,
                                   verify_ir=args.verify_ir)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(assembly)
    else:
        print(assembly, end="")
    return 0


def cmd_run(args) -> int:
    result = build_executable(_read_source(args.file), args.target,
                              include_runtime=not args.no_runtime,
                              opt_level=args.opt,
                              verify_ir=args.verify_ir)
    stdin = b""
    if args.stdin:
        with open(args.stdin, "rb") as handle:
            stdin = handle.read()
    try:
        stats, machine = run_executable(
            result.executable, stdin=stdin,
            max_instructions=args.max_instructions,
            max_cycles=args.max_cycles)
    except MachineTimeout as exc:
        trap = "none" if exc.last_trap is None else str(exc.last_trap)
        print(f"run: watchdog stopped the program: {exc.reason}\n"
              f"run:   pc={exc.pc:#x}  instructions={exc.executed}  "
              f"cycles={exc.cycles}  last trap={trap}\n"
              f"run: raise --max-instructions/--max-cycles if the "
              f"program legitimately needs more", file=sys.stderr)
        return EXIT_TIMEOUT
    sys.stdout.write(stats.output)
    if args.stats:
        print(f"\n--- {args.target} statistics ---", file=sys.stderr)
        print(f"binary size : {result.binary_size} bytes "
              f"(text {result.executable.text_size})", file=sys.stderr)
        print(f"path length : {stats.instructions}", file=sys.stderr)
        print(f"loads/stores: {stats.loads}/{stats.stores}",
              file=sys.stderr)
        print(f"interlocks  : {stats.interlocks} "
              f"(load {stats.load_interlocks}, "
              f"math {stats.math_interlocks})", file=sys.stderr)
        print(f"fetch words : {stats.ifetch_words}", file=sys.stderr)
        print(f"blocks      : {machine.block_instructions} instructions "
              f"in compiled blocks, {machine.block_fallbacks} entries "
              f"stepped after a failed entry test", file=sys.stderr)
        for wait_states in (0, 1, 2, 3):
            cycles = cycles_no_cache(stats, latency=wait_states)
            print(f"cycles @ {wait_states} ws: {cycles} "
                  f"(CPI {normalized_cpi(cycles, stats.instructions):.2f})",
                  file=sys.stderr)
    return stats.exit_code


def cmd_disasm(args) -> int:
    from .asm import format_listing

    result = build_executable(_read_source(args.file), args.target,
                              include_runtime=not args.no_runtime,
                              opt_level=args.opt)
    print(format_listing(result.executable, count=args.count))
    return 0


def cmd_lint(args) -> int:
    from .analysis import EXIT_INTERNAL

    try:
        return _lint(args)
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"lint: internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


#: The ``repro lint`` modes that read a linked image rather than source.
IMAGE_MODES = ("timing", "wcet", "icache", "density", "vuln")


def _lint(args) -> int:
    from .analysis import (EXIT_INTERNAL, LintReport, exit_code,
                           lint_program, render_json, render_text,
                           summarize)

    import os

    # ``repro lint prog.mc`` lints a source file; a bare word that is
    # not a file is a benchmark name (suite mode).
    file, names = args.file, list(args.names)
    if file and file != "-" and not os.path.exists(file):
        names.insert(0, file)
        file = None
    if args.all:
        # One pass over every analysis mode; the combined report keeps
        # the shared exit-code contract (any error finding -> 1).
        args.timing = args.wcet = args.icache = True
        args.density = args.tv = args.vuln = True
    image_modes = [mode for mode in IMAGE_MODES if getattr(args, mode)]
    if image_modes and not file and args.opt != 2:
        print(f"lint: --{image_modes[0]} reads the suite's -O2 images; "
              f"-O{args.opt} needs a source file", file=sys.stderr)
        return EXIT_INTERNAL
    icache_sizes = None
    if args.icache_sizes:
        icache_sizes = tuple(int(s) for s in
                             args.icache_sizes.split(","))
    if args.wcet:
        from .analysis import DEFAULT_SLACK

        # --wcet-slack 0 disables TIM005; unset means the default factor.
        args.wcet_slack = DEFAULT_SLACK if args.wcet_slack is None \
            else (args.wcet_slack or None)
    # Per mode, in run order: its reports, and its results (keyed by
    # (program, target), or by program for --tv) for --json and --stats.
    mode_reports: dict[str, list[LintReport]] = {}
    results: dict[str, dict] = {}

    def track(mode, new_reports, new_results=None):
        mode_reports[mode] = new_reports
        if new_results is not None:
            results[mode] = new_results

    if file:
        source = _read_source(file)
        track("lint", [LintReport(
            program=file, target=args.target,
            findings=lint_program(source, args.target, opt_level=args.opt,
                                  include_runtime=not args.no_runtime))])
        if image_modes:
            for mode, result, findings in _lint_image(args, file, source,
                                                      icache_sizes):
                track(mode, [LintReport(program=file, target=args.target,
                                        findings=findings)],
                      {(file, args.target): result})
        if args.cross_isa:
            from .analysis import check_cross_isa

            xisa = check_cross_isa(source, opt_level=args.opt,
                                   include_runtime=not args.no_runtime)
            track("cross-isa", [LintReport(
                program=file, target="+".join(xisa.targets),
                findings=xisa.findings)])
        if args.tv:
            from .analysis import tv_program

            tv = tv_program(source, file, targets=(args.target,),
                            opt_level=args.opt,
                            include_runtime=not args.no_runtime)
            track("tv", [LintReport(program=file, target=args.target,
                                    findings=tv.findings)], {file: tv})
    else:
        from .analysis import (cross_isa_suite, density_suite,
                               icache_suite, lint_suite, timing_suite,
                               tv_suite, vuln_suite, wcet_suite)

        targets = args.targets.split(",")
        programs = names or None
        track("lint", lint_suite(targets, programs, opt_level=args.opt))
        lab = None
        if image_modes:
            from .experiments import Lab

            lab = Lab()     # every image mode reads the same cells
        if args.timing:
            track("timing", *timing_suite(targets, programs, lab=lab))
        if args.wcet:
            track("wcet", *wcet_suite(targets, programs, lab=lab,
                                      slack=args.wcet_slack))
        if args.icache:
            track("icache", *icache_suite(
                targets, programs, lab=lab, sizes=icache_sizes,
                penalty=args.icache_penalty))
        if args.density:
            density_target = "dlxe" if "dlxe" in targets else targets[0]
            track("density", *density_suite(
                programs, target=density_target, lab=lab))
        if args.cross_isa:
            if len(targets) != 2:
                raise ValueError(
                    f"--cross-isa compares exactly two targets, "
                    f"got {targets}")
            track("cross-isa", cross_isa_suite(
                programs, targets=(targets[0], targets[1]),
                opt_level=args.opt))
        if args.vuln:
            track("vuln", *vuln_suite(
                targets, programs, lab=lab, faults=args.vuln_faults,
                seed=args.vuln_seed))
        lab = None      # drop its traces before translation validation
        if args.tv:
            track("tv", *tv_suite(programs, targets=tuple(targets),
                                  opt_level=args.opt))

    reports = [r for cell_reports in mode_reports.values()
               for r in cell_reports]
    timing_validations = results.get("timing")
    wcet_validations = results.get("wcet")
    icache_results = results.get("icache")
    densities = results.get("density")
    vuln_results = results.get("vuln")
    tv_results = results.get("tv")
    all_findings = [f for r in reports for f in r.findings]
    if args.json:
        extra = {}
        if wcet_validations:
            extra["bounds"] = [
                {"program": prog, "target": tname,
                 "observed_cycles": wv.observed_cycles,
                 "bcet": wv.bcet, "wcet": wv.wcet,
                 "loops_bounded": wv.program.bounded_loops,
                 "loops_total": wv.program.n_loops,
                 "functions": wv.program.function_records()}
                for (prog, tname), wv in sorted(wcet_validations.items())]
        if icache_results:
            extra["icache"] = [
                dict(program=prog, target=tname, **v.to_record())
                for (prog, tname), cell in sorted(icache_results.items())
                for _a, v in cell]
        if densities:
            extra["density"] = [
                {"program": prog, "target": tname,
                 "dlxe_bytes": d.dlxe_bytes,
                 "est_d16_bytes": d.est_d16_bytes,
                 "fused_pairs": d.fused_pairs,
                 "ratio": round(d.ratio, 4),
                 "functions": d.function_records()}
                for (prog, tname), d in sorted(densities.items())]
        if vuln_results:
            extra["vuln"] = [
                dict(cell.to_dict(),
                     waived=[{"location": where, "justification": why}
                             for where, why in waived])
                for (_prog, _tname), (cell, waived)
                in sorted(vuln_results.items())]
        if tv_results:
            extra["tv"] = [
                {"program": prog,
                 "passes": tv.pass_counts(),
                 "binary": tv.binary_counts(),
                 "unproven": [
                     {"kind": "pass", "location": c.location,
                      "verdict": c.verdict, "reason": c.reason}
                     for c in tv.passes if c.verdict != "proven"
                 ] + [
                     {"kind": "binary", "location": c.location,
                      "verdict": c.verdict, "reason": c.reason}
                     for c in tv.binary if c.verdict != "proven"]}
                for prog, tv in sorted(tv_results.items())]
        if args.all:
            extra["modes"] = {
                mode: {"cells": len(cell_reports),
                       "summary": summarize(
                           [f for r in cell_reports
                            for f in r.findings])}
                for mode, cell_reports in sorted(mode_reports.items())}
        print(render_json(
            all_findings,
            programs=sorted({r.program for r in reports}),
            targets=sorted({r.target for r in reports}),
            **extra))
    else:
        for report in reports:
            if report.findings:
                print(f"--- {report.program} [{report.target}]")
                print(render_text(report.findings))
        if args.stats or not all_findings:
            stats = summarize(all_findings)
            by_sev = stats["by_severity"]
            rules = ", ".join(f"{rule}:{count}" for rule, count
                              in stats["by_rule"].items()) or "none"
            print(f"lint: {len(reports)} program/target cells, "
                  f"{stats['total']} findings "
                  f"({by_sev.get('error', 0)} errors, "
                  f"{by_sev.get('warning', 0)} warnings); rules: {rules}")
        if args.stats and timing_validations:
            print("timing: program/target  interlocks  "
                  "[static lo, static hi]  tightness")
            for (prog, tname), tv in sorted(timing_validations.items()):
                print(f"timing: {prog}/{tname}  "
                      f"{tv.interlocks_observed}  "
                      f"[{tv.interlock_lo}, {tv.interlock_hi}]  "
                      f"{tv.tightness:.3f}")
        if args.stats and wcet_validations:
            print("wcet: program/target  cycles  [BCET, WCET]  "
                  "loops bounded/total")
            for (prog, tname), wv in sorted(wcet_validations.items()):
                wcet = wv.wcet if wv.wcet is not None else "unbounded"
                print(f"wcet: {prog}/{tname}  {wv.observed_cycles}  "
                      f"[{wv.bcet}, {wcet}]  "
                      f"{wv.program.bounded_loops}/{wv.program.n_loops}")
        if args.stats and icache_results:
            print("icache: program/target  size  AH/AM/PS/NC  "
                  "miss UB  sim misses  contradictions")
            for (prog, tname), cell in sorted(icache_results.items()):
                for analysis, v in cell:
                    c = analysis.counts
                    ub = analysis.miss_ub if analysis.miss_ub \
                        is not None else "unbounded"
                    print(f"icache: {prog}/{tname}  "
                          f"{analysis.config.size}  "
                          f"{c['always-hit']}/{c['always-miss']}/"
                          f"{c['persistent']}/{c['not-classified']}  "
                          f"{ub}  {v.sim_misses}  {v.contradictions}")
        if args.stats and densities:
            print("density: program/target  dlxe bytes  est d16 bytes  "
                  "ratio  fused pairs")
            for (prog, tname), d in sorted(densities.items()):
                print(f"density: {prog}/{tname}  {d.dlxe_bytes}  "
                      f"{d.est_d16_bytes}  {d.ratio:.3f}  {d.fused_pairs}")
        if args.stats and vuln_results:
            print("vuln: program/target  proven/sites  by kind  AVF  "
                  "waived")
            for (prog, tname), (cell, waived) in sorted(
                    vuln_results.items()):
                kinds = " ".join(
                    f"{kind}:{per['masked']}/{per['sites']}"
                    for kind, per in cell.by_kind().items())
                print(f"vuln: {prog}/{tname}  "
                      f"{cell.proven_masked}/{len(cell.verdicts)}  "
                      f"{kinds}  {cell.summary.avf:.3f}  "
                      f"{len(waived)}")
        if args.stats and tv_results:
            print("tv: program  passes proven/unknown/divergent  "
                  "binary proven/unknown/divergent")
            for prog, tv in sorted(tv_results.items()):
                pc, bc = tv.pass_counts(), tv.binary_counts()
                print(f"tv: {prog}  {pc['proven']}/{pc['unknown']}/"
                      f"{pc['divergent']}  {bc['proven']}/"
                      f"{bc['unknown']}/{bc['divergent']}")
    return exit_code(reports)


def _lint_image(args, file: str, source: str, icache_sizes):
    """The requested image modes on one source file.

    Builds the file's image once, recovers it once, composes its
    whole-program interval at most once and runs it at most once
    (traced when a mode reads the instruction trace); returns ``(mode,
    result, findings)`` per mode, in report order.
    """
    from .analysis import (analyze_wcet, density_cell, icache_cell,
                           resolve_cfg, timing_cell, vuln_cell, wcet_cell)

    built = build_executable(source, args.target, opt_level=args.opt,
                             include_runtime=not args.no_runtime)
    exe, target = built.executable, built.target
    image = resolve_cfg(exe, target.isa, symbols=built.labels,
                        target=target)
    stats = itrace = None
    if args.timing or args.wcet or args.icache or args.vuln:
        stats, machine = run_executable(
            exe, trace_instructions=args.icache or args.vuln)
        itrace = machine.itrace
    program = analyze_wcet(image, model=None) \
        if args.wcet or args.icache else None
    cells = []
    if args.timing:
        cells.append(("timing", *timing_cell(image, stats)))
    if args.wcet:
        cells.append(("wcet", *wcet_cell(program, stats,
                                         slack=args.wcet_slack)))
    if args.density:
        cells.append(("density", *density_cell(image)))
    if args.icache:
        cells.append(("icache", *icache_cell(
            program, stats, itrace, sizes=icache_sizes,
            penalty=args.icache_penalty)))
    if args.vuln:
        cells.append(("vuln", *vuln_cell(
            file, target.name, image, stats, itrace,
            faults=args.vuln_faults, seed=args.vuln_seed)))
    return cells


def cmd_bench(args) -> int:
    from .experiments import Lab

    names = program_names(args.names)
    targets = args.targets.split(",")
    if not _known("bench", names, targets):
        return 2
    grid = Lab(jobs=args.jobs).runs(names, targets)
    header = f"{'program':12s}" + "".join(
        f"{t + ' size':>16s}{t + ' path':>16s}" for t in targets)
    print(header)
    for name in names:
        row = f"{name:12s}"
        for target in targets:
            run = grid[name][target]
            row += f"{run.binary_size:16d}{run.path_length:16d}"
        print(row)
    return 0


def cmd_faults(args) -> int:
    from .faults import FAULT_KINDS
    from .faults.campaign import FaultCampaign, render_report

    names = args.names or default_fault_benchmarks()
    targets = args.targets.split(",")
    if not _known("faults", names, targets):
        return 2
    kinds = tuple(args.kinds.split(",")) if args.kinds else FAULT_KINDS
    for kind in kinds:
        if kind not in FAULT_KINDS:
            print(f"faults: unknown fault kind {kind!r} "
                  f"(known: {', '.join(FAULT_KINDS)})", file=sys.stderr)
            return 2
    campaign = FaultCampaign(
        benchmarks=tuple(names), targets=tuple(targets),
        faults=args.faults, seed=args.seed, kinds=kinds,
        prune_masked=args.prune_masked)
    report = campaign.run(jobs=args.jobs)
    text = render_report(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    errors = sum("error" in cell for cell in report["cells"])
    summary = " | ".join(
        f"{target}: sdc {row['sdc_rate']:.3f}, "
        f"detected {row['detected_rate']:.3f}, "
        f"flips-to-failure {row['flips_to_failure']}"
        for target, row in report["summary"].items())
    pruned = sum(cell.get("pruned", 0) for cell in report["cells"])
    note = f", {pruned} pruned" if args.prune_masked else ""
    unpruned = sum("prune_error" in cell for cell in report["cells"])
    if unpruned:
        note += f", {unpruned} cells unpruned (oracle failed)"
    print(f"faults: {len(report['cells'])} cells "
          f"({errors} failed), {args.faults} faults/cell, "
          f"seed {args.seed}{note} | {summary}", file=sys.stderr)
    return 1 if errors else 0


def _known(command: str, names: list[str], targets: list[str]) -> bool:
    """Check benchmark and target names; print the first unknown one."""
    try:
        for name in names:
            get_benchmark(name)
        for target in targets:
            get_target(target)
    except KeyError as exc:
        print(f"{command}: {exc.args[0]}", file=sys.stderr)
        return False
    return True


def default_fault_benchmarks() -> list[str]:
    """Integer-heavy subset: quick and representative for campaigns."""
    return ["ackermann", "queens", "towers", "bubblesort"]


def cmd_cache(args) -> int:
    from .labcache import default_cache

    cache = default_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        return 0
    stats = cache.stats()
    state = "enabled" if cache.enabled else "disabled (REPRO_CACHE=off)"
    print(f"artifact cache : {stats.root} ({state})")
    print(f"entries        : {stats.entries}")
    print(f"total size     : {stats.total_bytes / 1024:.1f} KiB")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .service import SimulationService

    service = SimulationService(args.root, jobs=args.jobs,
                                task_timeout=args.task_timeout)
    recovered = service.start()
    if recovered:
        print(f"serve: recovered {recovered} in-flight batch(es) "
              f"from the journal", file=sys.stderr)
    print(f"serve: listening on {args.host}:{args.port} "
          f"({args.jobs} workers, store at {args.root})",
          file=sys.stderr)
    try:
        asyncio.run(service.serve(args.host, args.port))
    except KeyboardInterrupt:
        print("serve: shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def cmd_chaos(args) -> int:
    import contextlib
    import json as json_mod
    import tempfile

    from .service import chaos_campaign

    # Without --root the campaign's journals and stores are scratch.
    scratch = (contextlib.nullcontext(args.root) if args.root
               else tempfile.TemporaryDirectory(prefix="repro-chaos-"))
    with scratch as root:
        report = chaos_campaign(root, seed=args.seed, count=args.requests,
                                failures=args.failures, jobs=args.jobs,
                                task_timeout=args.task_timeout)
    if args.json:
        with open(args.json, "w") as handle:
            json_mod.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"chaos: {report['requests']} requests, "
          f"{report['injections_fired']}/{report['injections_planned']}"
          f" injections fired {report['injections_by_action']}, "
          f"{report['worker_restarts']} worker restarts, "
          f"{report['retries']} retries", file=sys.stderr)
    print(f"chaos: lost={report['lost_requests']} "
          f"identical={report['identical']} "
          f"p50={report['chaos_p50_ms']}ms "
          f"p99={report['chaos_p99_ms']}ms", file=sys.stderr)
    ok = (report["lost_requests"] == 0 and report["identical"])
    return 0 if ok else 1


def cmd_targets(_args) -> int:
    for name in sorted(TARGETS):
        spec = TARGETS[name]
        print(f"{name:12s} isa={spec.isa.name:5s} "
              f"regs={spec.num_gregs:2d} "
              f"{'3-addr' if spec.three_address else '2-addr'} "
              f"{'wide-imm' if spec.wide_immediates else 'narrow-imm'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .faults.model import FAULTS_PER_CELL, VULN_SEED

    parser = argparse.ArgumentParser(
        prog="repro",
        description="D16 vs DLXe toolchain (ISCA 1993 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile minic to assembly")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--no-runtime", action="store_true")
    p.add_argument("-O", "--opt", type=int, default=2)
    p.add_argument("--verify-ir", action="store_true",
                   help="run the IR verifier between optimizer passes")
    _add_target(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true",
                   help="print simulator statistics to stderr")
    p.add_argument("--stdin", help="file supplying simulated stdin")
    p.add_argument("--no-runtime", action="store_true")
    p.add_argument("-O", "--opt", type=int, default=2)
    p.add_argument("--verify-ir", action="store_true",
                   help="run the IR verifier between optimizer passes")
    p.add_argument("--max-instructions", type=int, default=DEFAULT_FUEL,
                   metavar="N",
                   help="watchdog: stop after N retired instructions "
                        "(default %(default)s)")
    p.add_argument("--max-cycles", type=int, default=None, metavar="N",
                   help="watchdog: stop after N simulated cycles")
    _add_target(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("disasm", help="compile and disassemble")
    p.add_argument("file")
    p.add_argument("-n", "--count", type=int, default=None)
    p.add_argument("--no-runtime", action="store_true")
    p.add_argument("-O", "--opt", type=int, default=2)
    _add_target(p)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser(
        "lint", help="static analysis (IR, encoding, binary, call conv)")
    p.add_argument("file", nargs="?",
                   help="minic source to lint (default: benchmark suite)")
    p.add_argument("names", nargs="*",
                   help="benchmark names for suite mode (default: all)")
    p.add_argument("--targets", default=",".join(MAIN_TARGETS),
                   help="comma-separated targets for suite mode")
    p.add_argument("--json", action="store_true",
                   help="emit findings as JSON")
    p.add_argument("--stats", action="store_true",
                   help="print a summary line (rules, severities, cells)")
    p.add_argument("--timing", action="store_true",
                   help="cross-validate static cycle bounds against the "
                        "simulator (TIM rules)")
    p.add_argument("--wcet", action="store_true",
                   help="bracket simulated cycles with the whole-program "
                        "static [BCET, WCET] interval (LOOP/TIM rules)")
    p.add_argument("--wcet-slack", type=float, default=None,
                   metavar="FACTOR",
                   help="TIM005 when the finite interval is wider than "
                        "FACTOR x the observed cycles (default: 8.0; "
                        "pass 0 to disable)")
    p.add_argument("--icache", action="store_true",
                   help="classify instruction fetches per cache config "
                        "(must/may/persistence) and validate against "
                        "simulated replay (CACHE rules)")
    p.add_argument("--icache-sizes", default=None, metavar="BYTES,...",
                   help="comma-separated cache sizes for --icache "
                        "(default: the cacheperf grid)")
    p.add_argument("--icache-penalty", type=int,
                   default=DEFAULT_MISS_PENALTY, metavar="CYCLES",
                   help="miss penalty for cache-aware WCET bounds "
                        "(default: %(default)s)")
    p.add_argument("--density", action="store_true",
                   help="estimate D16 compressibility of the 32-bit "
                        "image (DEN rules)")
    p.add_argument("--cross-isa", action="store_true",
                   help="compare per-function facts between the two "
                        "targets (XISA rules)")
    p.add_argument("--tv", action="store_true",
                   help="translation validation: prove every optimizer "
                        "pass application equivalent and match binary "
                        "effect summaries against the IR (EQ rules)")
    p.add_argument("--vuln", action="store_true",
                   help="backward liveness (LIV dead-code rules) plus "
                        "static masked/ACE classification of the "
                        "seeded fault sites and register-file AVF "
                        "(VULN rules)")
    p.add_argument("--vuln-faults", type=int, default=FAULTS_PER_CELL,
                   metavar="N",
                   help="planned fault sites per cell for --vuln "
                        "(default %(default)s, matching repro faults)")
    p.add_argument("--vuln-seed", type=int, default=VULN_SEED,
                   metavar="SEED",
                   help="campaign seed for the --vuln site planner "
                        "(default %(default)s)")
    p.add_argument("--all", action="store_true",
                   help="run every analysis mode (lint, timing, wcet, "
                        "icache, density, tv, vuln) in one pass with a "
                        "combined report")
    p.add_argument("--no-runtime", action="store_true")
    p.add_argument("-O", "--opt", type=int, default=2)
    _add_target(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("bench", help="benchmark table")
    p.add_argument("names", nargs="*",
                   help="benchmark names (default: all)")
    p.add_argument("--targets", default=",".join(MAIN_TARGETS),
                   help="comma-separated target list")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="compile/run grid cells in N parallel processes")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign (JSON report)")
    p.add_argument("names", nargs="*",
                   help="benchmark names (default: quick subset)")
    p.add_argument("--targets", default=",".join(MAIN_TARGETS),
                   help="comma-separated target list")
    p.add_argument("-n", "--faults", type=int, default=FAULTS_PER_CELL,
                   help="faults per (benchmark, target) cell "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed (default %(default)s)")
    p.add_argument("--kinds", default=None,
                   help="comma-separated fault kinds "
                        "(default: ifetch,reg,mem,trap,cache)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="run grid cells in N parallel processes")
    p.add_argument("--prune-masked", action="store_true",
                   help="skip injections the static vulnerability "
                        "analysis proves masked (outcome counts are "
                        "unchanged; pruned sites are recorded, not run)")
    p.add_argument("-o", "--output",
                   help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "serve", help="fault-tolerant simulation service (JSON lines)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--root", default=".repro-service",
                   help="service root (journal + result store, "
                        "default %(default)s)")
    p.add_argument("-j", "--jobs", type=int, default=2,
                   help="worker processes (default %(default)s)")
    p.add_argument("--task-timeout", type=float, default=60.0,
                   help="per-task hang deadline in seconds "
                        "(default %(default)s)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "chaos", help="chaos harness: clean vs fault-injected replay")
    p.add_argument("--requests", type=int, default=1000,
                   help="replayed request count (default %(default)s)")
    p.add_argument("--failures", type=int, default=24,
                   help="seeded injections: worker kills/hangs/slows "
                        "and cache corruption (default %(default)s)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-j", "--jobs", type=int, default=2,
                   help="worker processes per service "
                        "(default %(default)s)")
    p.add_argument("--task-timeout", type=float, default=5.0,
                   help="per-task hang deadline in seconds "
                        "(default %(default)s)")
    p.add_argument("--root", default=None,
                   help="campaign root (default: a temp directory)")
    p.add_argument("--json", default=None,
                   help="write the full JSON report here")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("targets", help="list compiler configurations")
    p.set_defaults(fn=cmd_targets)

    p = sub.add_parser("cache", help="persistent artifact cache")
    p.add_argument("action", choices=("stats", "clear"),
                   help="show cache statistics or delete all entries")
    p.set_defaults(fn=cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
