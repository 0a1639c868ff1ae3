# Plants each mutant in a copy of the tree (its root is the one argument),
# runs ./internal/conntrack and prints which tests fail; a mutant that
# hangs shows as a timeout. Never run it on the checkout itself.
import subprocess, re, sys
root=sys.argv[1]
muts = {
 'M1 reopen keeps the old generation': ('internal/conntrack/conntrack.go',
   '''func (t *Table) reopen(old *Conn, k *flow.Key, h uint64, now int64) *Conn {
	t.remove(old)
	t.stats.Reopened++
	return t.create(k, h, now)''',
   '''func (t *Table) reopen(old *Conn, k *flow.Key, h uint64, now int64) *Conn {
	gen := old.gen
	t.remove(old)
	t.stats.Reopened++
	c := t.create(k, h, now)
	c.gen = gen
	return c'''),
 'M2 reused storage keeps its generation': ('internal/conntrack/conntrack.go',
   'c.Epoch, c.bound, c.gen = epoch, epoch, epoch',
   '''c.Epoch, c.bound = epoch, epoch
	if c.gen == 0 {
		c.gen = epoch
	}'''),
 'M3 re-registration onto an own tuple leaves the slot': ('internal/conntrack/conntrack.go',
   '''		if s.Ref>>1 == v>>1 {
			s.Ref = v
			return
		}''','''		if s.Ref>>1 == v>>1 {
			return
		}'''),
 'M4 re-registration onto an own tuple displaces itself': ('internal/conntrack/conntrack.go',
   '''		if s.Ref>>1 == v>>1 {
			s.Ref = v
			return
		}''',''),
 'M5 removal assumes every tuple is indexed': ('internal/slab/slab.go',
   '''		if s.Hash == 0 {
			return false
		}
		i = (i + 1) & m''','''		i = (i + 1) & m'''),
 'M6 pair index built empty': ('internal/conntrack/conntrack.go',
   '''	for ref := t.lruHead; ref != 0; ref = t.at(ref).next {
		t.countPair(&t.at(ref).Orig, 1)
	}''',''),
 'M7 pair index not maintained on removal': ('internal/conntrack/conntrack.go',
   '''	t.countPair(&c.Orig, -1)''',''),
}
for name,(f,a,b) in muts.items():
    p=f'{root}/{f}'
    orig=open(p).read()
    assert orig.count(a)==1,(name,a)
    open(p,'w').write(orig.replace(a,b))
    r=subprocess.run(['go','test','-count=1','-timeout','30s','./internal/conntrack'],cwd=root,capture_output=True,text=True)
    open(p,'w').write(orig)
    fails=sorted(set(re.findall(r'--- FAIL: (\S+)',r.stdout)))
    hang='panic: test timed out' in r.stdout
    print(f'{name}: exit {r.returncode}{" (timed out)" if hang else ""}; failing: {", ".join(fails) or "-"}')
