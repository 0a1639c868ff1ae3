# Per-pair ratios of two bench-pairs record files: python3 pairs.py parent.jsonl change.jsonl.
# For each workload and end-to-end metric: the median of change/parent - 1 over
# the seeds both sides ran, in how many pairs the change read lower, the
# interquartile range of the parent's runs, the range of the ratios, and
# whether every run on both sides was correct with no failed operation.
import json,sys,statistics
def load(f):
    d={}
    for l in open(f):
        r=json.loads(l); d[(r['workload'],r['seed'])]=r
    return d
p=load(sys.argv[1]); c=load(sys.argv[2])
ws=sorted({w for w,_ in p}, key=['warm-exact','warm-ltm','cold-churn','nat-conn'].index)
for w in ws:
    seeds=sorted(s for ww,s in p if ww==w and (ww,s) in c)
    allok=all(p[(w,s)]['correct'] and c[(w,s)]['correct'] and p[(w,s)]['failed']==0 and c[(w,s)]['failed']==0 for s in seeds)
    for m in ['pkt_ns','heap_mb','rtt_p50_us','setup_s','hit_ratio']:
        ratios=[c[(w,s)]['metrics'][m]['value']/p[(w,s)]['metrics'][m]['value']-1 for s in seeds]
        lower=sum(r<0 for r in ratios)
        pv=[p[(w,s)]['metrics'][m]['value'] for s in seeds]
        q=statistics.quantiles(pv,n=4)
        print(f"{w:11s} {m:10s} pair-ratio median {statistics.median(ratios)*100:+6.2f}%  change lower in {lower}/{len(seeds)}  parent IQR {q[2]-q[0]:.4g}  range {min(ratios)*100:+.1f}..{max(ratios)*100:+.1f}%  all correct {allok}")
