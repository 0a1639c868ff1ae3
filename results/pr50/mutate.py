#!/usr/bin/env python3
"""Plant one mutation in a copy of the tree: 1 and 3-16 are the oracle's
corpus, 17-19 the shutdown mutants of the shard's one message body.

Usage: mutate.py TREE N

Each mutation is a list of exact string replacements; a replacement whose
target does not occur exactly once in its file is refused, so a patch that
no longer fits the code fails loudly instead of planting nothing. Run it
on a scratch copy, never on the working tree.
"""
import pathlib
import sys

MUTATIONS = {
    1: [("vswitch.go", "if parked != nil && v.ct == nil {", "if parked != nil {")],
    3: [("vswitch.go", "\tif tr.CtEpoch == 0 {\n\t\tok, evicted := v.main.Install(",
         "\tif true {\n\t\tok, evicted := v.main.Install(")],
    4: [("service/batch.go", "blk.keys[idx], blk.metas[idx] = k, info.TCPFlags",
         "blk.keys[idx], blk.metas[idx] = k, 0")],
    5: [("service/upcall.go", "res, still, err := w.vs.ProcessPark(m.key, now)",
         "res, still, err := gigaflow.ProcessResult{}, true, error(nil)")],
    6: [("service/upcall.go", " && m.tr.Version == w.vs.Pipeline().Version", "")],
    7: [("internal/conntrack/conntrack.go", " && s.Match.MatchesKey(kt)", "")],
    8: [("service/batch.go", "\t\t\ts.workers[w].drops.Add(uint64(len(blk.keys)))\n", "")],
    9: [("service/batch.go", "!(o.nonblocking && err == ErrNotStarted)", "!o.nonblocking")],
    10: [("service/service.go", "\t\t\tout[i], errs[i] = w.vs.Process(blk.keys[i], now)\n",
          "\t\t\ttr, _ := w.vs.Pipeline().Process(blk.keys[i])\n"
          "\t\t\tout[i], errs[i] = w.vs.CompleteMiss(blk.keys[i], tr, now, 0, 0)\n")],
    11: [("service/service.go", "\tfor _, w := range s.workers {\n\t\tw.vs.Revalidate()\n\t}\n",
          "\tfor _, w := range s.workers {\n\t\tif err == nil {\n\t\t\tw.vs.Revalidate()\n\t\t}\n\t}\n")],
    12: [("service/service.go", "w.up.OverflowInline++", "w.up.OverflowInline += 2")],
    13: [("service/service.go", "\tmaxIdle, connMaxIdle int64\n", "\tmaxIdle, connMaxIdle int64\n\tprev                 int64\n"),
         ("service/service.go", "w.vs.ExpireIdle(now, w.maxIdle, w.connMaxIdle)\n\t\tw.sweepAt = now + sweepEvery.Nanoseconds()\n\t}\n",
          "w.vs.ExpireIdle(w.prev, w.maxIdle, w.connMaxIdle)\n\t\tw.sweepAt = now + sweepEvery.Nanoseconds()\n\t}\n\tw.prev = now\n")],
    14: [("service/service.go", "\tif !closed {\n\t\tw.due(now)",
          "\tif !closed && m.control == nil {\n\t\tw.due(now)")],
    15: [("service/upcall.go", "\t\t\tnow := s.clock()\n", "\t\t\tnow := time.Now().UnixNano()\n")],
    16: [("vswitch.go", "table = v.walkSuffix(tr, &o.Final)", "table = v.walkSuffix(tr, kt)")],
    # The shutdown mutants of worker.exec and drain; each must fail some
    # test of ./service (not necessarily the oracle): a closed service's
    # shard sweeps (17), runs a job (18), or drain skips the queue's
    # control ops (19).
    17: [("service/service.go", "\tif !closed {\n\t\tw.due(now)\n\t}\n", "\tw.due(now)\n")],
    18: [("service/service.go", "\tcase closed:\n\t\tm.job.blk.settle(ErrClosed)\n\t\tm.job.closed = true\n", "")],
    19: [("service/service.go", "\t\tcase m := <-w.in:\n\t\t\tw.serve(m, 0)\n",
          "\t\tcase m := <-w.in:\n\t\t\tif m.control != nil {\n\t\t\t\tcontinue\n\t\t\t}\n\t\t\tw.serve(m, 0)\n")],
}


def main():
    tree, n = pathlib.Path(sys.argv[1]), int(sys.argv[2])
    for name, old, new in MUTATIONS[n]:
        path = tree / name
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"mutation {n}: {name}: target occurs {text.count(old)} times")
        path.write_text(text.replace(old, new))


if __name__ == "__main__":
    main()
