"""The two user-facing pipelines, built from the package's public calls in
the order the CLI makes them.

``run_break`` is ``qsymbreak break --both`` and ``run_verify`` is
``qsymbreak verify`` with the CLI defaults (detection budget, no product
closure, orbit-coverage cap 4096).  Both take the QDIMACS text, a tracer,
a counter dict that they fill from the values the calls return, and a dict
that receives each result as soon as it exists, so that an instance that
stops at a cap still has its generators checked.  They let
``CapExceededError`` through, as the CLI does when it exits with 3.
"""

from __future__ import annotations

import dataclasses

import qsymbreak as qs

VERIFY_CAP = 4096  # qsymbreak verify --cap default


def _detect(instance, tracer, counts):
    with tracer.span("detect"):
        found = qs.detect_symmetries(instance)
    counts["generators"] += len(found.generators)
    counts["search_nodes"] += found.nodes_expanded
    counts["budget_exhausted"] += not found.complete
    return list(found.generators)


def _encode(instance, gens, tracer, counts):
    prefix = instance.prefix
    with tracer.span("breakers.encode"):
        enc_e = qs.encode_existential_cnf(prefix, gens)
        enc_u = qs.encode_universal_dnf(
            prefix, gens, start_var=max((*prefix.variables, *enc_e.aux_vars)) + 1
        )
    counts["clauses"] += len(enc_e.clauses)
    counts["cubes"] += len(enc_u.cubes)
    counts["aux_vars"] += len(enc_e.aux_vars) + len(enc_u.aux_vars)
    # what break --both writes: the matrix plus breaker clauses, the cubes,
    # and the merged prefix
    counts["output_clauses"] += len(instance.clauses) + len(enc_e.clauses) + len(enc_u.cubes)
    counts["output_vars"] += prefix.n + len(enc_e.aux_vars) + len(enc_u.aux_vars)
    return enc_e, enc_u


def _parse(text, tracer, counts):
    with tracer.span("qdimacs.parse"):
        instance = qs.parse_qdimacs(text)
    counts["input_bytes"] += len(text)
    return instance


def run_break(text: str, tracer, counts, out: dict) -> None:
    instance = _parse(text, tracer, counts)
    gens = out["generators"] = _detect(instance, tracer, counts)
    enc_e, enc_u = _encode(instance, gens, tracer, counts)
    with tracer.span("breakers.augment"):
        augmented, sidecar = qs.augment_instance(instance, (enc_e, enc_u), "combined")
    augmented = dataclasses.replace(
        augmented,
        comments=(f"matrix clauses: {len(instance.clauses)}",) + augmented.comments,
    )
    with tracer.span("qdimacs.serialize"):
        cnf = qs.serialize_qdimacs(augmented)
        dnf = qs.serialize_dnf(*sidecar)
    counts["output_bytes"] += len(cnf) + len(dnf)
    out["cnf"], out["dnf"] = cnf, dnf


def _truth(target, tracer, counts) -> bool:
    counts["truth_calls"] += 1
    with tracer.span("strategies.truth"):
        try:
            return qs.qbf_truth(target)
        except qs.CapExceededError:
            counts["cap_hits"] += 1
            raise


def run_verify(text: str, tracer, counts, out: dict) -> None:
    instance = _parse(text, tracer, counts)
    gens = out["generators"] = _detect(instance, tracer, counts)
    prefix = out["prefix"] = instance.prefix
    base = out["truth"] = _truth(instance, tracer, counts)
    with tracer.span("breakers.formula"):
        psi_e = qs.lex_leader_formula(prefix, gens)
        psi_u = qs.universal_lex_leader_formula(prefix, gens)
        formulas = psi_e.formula, psi_u.formula
    enc_e, enc_u = _encode(instance, gens, tracer, counts)

    checks = out["checks"] = []

    def check(name, target, expected):
        checks.append((name, _truth(target, tracer, counts) == expected))

    check("existential breaker is a true QBF", (prefix, formulas[0]), True)
    check("universal breaker is a false QBF", (prefix, formulas[1]), False)
    with tracer.span("breakers.augment"):
        conjoined = qs.augment_instance(instance, enc_e, "conjoin-cnf")[0]
    check("truth preserved by conjoined CNF encoding", conjoined, base)
    with tracer.span("breakers.augment"):
        attached = qs.augmented_formula(instance, universal=enc_u)
    check("truth preserved by attached DNF encoding", attached, base)
    with tracer.span("breakers.augment"):
        combined = qs.augmented_formula(instance, enc_e, enc_u)
    check("truth preserved by combined encoding", combined, base)
    # orbit coverage last, as in the CLI
    for psi, name in ((psi_e, "existential"), (psi_u, "universal")):
        with tracer.span("breakers.verify"):
            try:
                report = qs.verify_breaker(prefix, gens, psi, cap=VERIFY_CAP)
            except qs.CapExceededError:
                counts["cap_hits"] += 1
                raise
        counts["orbits"] += report.orbit_count
        counts["orbits_covered"] += report.covered
        checks.append((f"{name} orbit coverage", report.ok))
    out["breakers"] = psi_e, psi_u


def strategies_kept(out: dict) -> int:
    """Strategies, over all orbits of both breakers, on which the breaker
    holds: the breaker's strength, which the coverage report does not give
    because it stops at the first witness per orbit.  Recomputes the
    orbits, so the traced run calls it outside any timed pass."""
    prefix, gens = out["prefix"], out["generators"]
    kept = 0
    for psi in out["breakers"]:
        role = qs.EXISTENTIAL if psi.polarity == qs.EXISTS else qs.UNIVERSAL
        target = psi.polarity == qs.EXISTS
        for orbit in qs.semantic_orbits(prefix, gens, cap=VERIFY_CAP, role=role):
            kept += sum(qs.strategy_value((prefix, psi.formula), s) == target for s in orbit)
    return kept


PIPELINES = {"break": run_break, "verify": run_verify}
