"""cluster_2pc — cross-site groups through presumed-abort two-phase commit."""

from __future__ import annotations

from collections import Counter

from repro.cluster import Cluster
from repro.storage.log import CommitRecord

from perf import inputs as gen
from perf.clients import run_sequential
from perf.workload import (
    Workload,
    compare_counters,
    create_objects,
    increment,
    increment_bytes,
    log_bytes,
    manager_census,
    manager_counters,
    read_counters,
    size_of,
)

COUNTERS_PER_SITE = 16


def _increments(inputs):
    """``(site, counter index) -> increments``: every group commits."""
    return Counter(
        member for _coordinator, members in inputs for member in members
    )


class Cluster2pc(Workload):
    name = "cluster_2pc"
    why = (
        "presumed-abort 2PC end to end over the fabric: sites, proxies,"
        " force-logged Prepare/Decision records"
    )
    units = 500
    clients = 1

    def generate(self, seed, units):
        return gen.cluster_2pc(seed, units, COUNTERS_PER_SITE)

    def build(self):
        # Fault-free fabric with instant delivery: the default plan.
        self.raw_cluster = Cluster(sites=gen.SITES)
        self.oids = {}
        for site in gen.SITES:
            ref = self.raw_cluster.spawn_at(
                site, create_objects, args=(COUNTERS_PER_SITE,)
            )
            self.raw_cluster.wait(ref)
            self.oids[site] = self.raw_cluster.result_of(ref)
            if not self.raw_cluster.group_commit([ref]):
                raise RuntimeError(f"could not populate site {site}")
        self.cluster = self.tracer.wrap("cluster.cluster", self.raw_cluster)

    def prepare(self, inputs):
        oids = self.oids
        return [
            (coordinator, [(site, oids[site][index]) for site, index in members])
            for coordinator, members in inputs
        ]

    def run(self, work, recorder):
        cluster = self.cluster

        def do_unit(item):
            coordinator, members = item
            refs = [
                cluster.spawn_at(site, increment, args=(oid,))
                for site, oid in members
            ]
            for ref in refs:
                cluster.wait(ref)
            cluster.link_group(refs)
            outcome = cluster.group_commit(refs, coordinator=coordinator)
            return "group", bool(outcome)

        run_sequential(work, do_unit, recorder)
        self.tracer.unit = -1
        self.converged = cluster.converge()

    def _sites(self):
        return [self.raw_cluster.sites[name] for name in gen.SITES]

    def managers(self):
        return [site.manager for site in self._sites()]

    def _check_counters(self, inputs, where):
        tally = _increments(inputs)
        problems = []
        for site in self._sites():
            got = site.runtime.run(
                read_counters, args=(self.oids[site.name],)
            ).value
            want = [
                tally[(site.name, index)] for index in range(COUNTERS_PER_SITE)
            ]
            problems += [
                f"{where}, site {site.name}: {problem}"
                for problem in compare_counters(got, want)
            ]
        return problems

    def _check_logs(self, where):
        """Atomicity + convergence oracles, and a durable CommitRecord for
        every member of every group (all groups are scripted to commit)."""
        problems = []
        report, _analyses = self.raw_cluster.evaluate(label=where)
        problems += [f"{where}: {violation}" for violation in report.violations]
        committed = {
            site.name: {
                record.tid.value
                for record in site.durable_records()
                if isinstance(record, CommitRecord)
            }
            for site in self._sites()
        }
        missing = [
            (gid, site)
            for gid, group in self.raw_cluster.groups.items()
            for site, tid in group["members"].items()
            if tid.value not in committed[site]
        ]
        if missing:
            problems.append(
                f"{where}: {len(missing)} group members have no durable"
                f" CommitRecord (first: gid {missing[0][0]} at {missing[0][1]})"
            )
        return problems

    def verify(self, inputs, recorder):
        problems = [] if self.converged else ["cluster did not converge"]
        return (
            problems
            + self._check_counters(inputs, "live")
            + self._check_logs("live")
        )

    def user_bytes(self, inputs):
        return increment_bytes(_increments(inputs).values())

    def counters(self):
        out = Counter()
        for site in self._sites():
            out.update(manager_counters(site.manager, site.runtime))
            out["storage.log.bytes"] += log_bytes(site.storage.log)
        fabric = self.raw_cluster.fabric.stats
        out["net.fabric.sent"] = fabric["sent"]
        out["net.fabric.delivered"] = fabric["delivered"]
        out["cluster.cluster.rounds"] = self.raw_cluster.rounds
        # Every flush of a site's log is forced by the protocol or a commit.
        out["cluster.site.forced_flushes"] = out["storage.log.flushes"]
        return dict(out)

    def census(self):
        sites = self._sites()

        def total(sizes):
            sizes = list(sizes)
            return None if None in sizes else sum(sizes)

        rows = [manager_census(site.manager, site.runtime) for site in sites]
        out = {key: total(row[key] for row in rows) for key in rows[0]}
        out["census.site_settled_gids"] = total(
            size_of(site, "settled_gids") for site in sites
        )
        out["census.site_voted_gids"] = total(
            size_of(site, "voted_gids") for site in sites
        )
        return out

    def recover(self, inputs, recorder):
        """Power-cut all three sites, then time their restarts."""
        cluster = self.raw_cluster
        records = sum(len(site.storage.log.records()) for site in self._sites())
        for name in gen.SITES:
            cluster.crash_site(name)
        reports, seconds = self.clock.timed(
            lambda: [cluster.restart_site(name) for name in gen.SITES]
        )
        problems = []
        if not cluster.converge():
            problems.append("after restart: cluster did not converge")
        counts = {
            "storage.recovery.records_scanned": records,
            "storage.recovery.redo_count": sum(r.redone for r in reports),
            "storage.recovery.undo_count": sum(r.undone for r in reports),
        }
        problems += self._check_counters(inputs, "after restart")
        problems += self._check_logs("after restart")
        return seconds, counts, problems
