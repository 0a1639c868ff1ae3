// Package ofp implements a textual pipeline-programming format in the
// spirit of ovs-ofctl flow syntax: pipelines, tables, and rules are
// declared one per line, loadable from files and dumpable back to text
// (round-trip stable). It is the operator-facing surface for programming
// the vSwitch outside Go code — cmd/gfctl builds on it.
//
// Grammar (one statement per line; '#' starts a comment):
//
//	pipeline <name>
//	table <id> <name> [fields=<f1,f2,...>] [miss=drop|goto(<id>)|output(<port>)]
//	rule table=<id> [priority=<p>] [<match terms>] actions=<a1>,<a2>,...
//
// Match terms use the flow package's notation (eth_dst=02:..:01,
// ip_dst=10.0.0.0/24, tp_dst=80). Actions:
//
//	set_field(<field>=<value>[/mask])   rewrite a header field
//	output(<port>)                      forward and stop
//	drop                                discard and stop
//	goto(<table>)                       continue at a table
//	dnat(<pool>)                        rewrite destination from a NAT pool
//	snat(<pool>)                        rewrite source from a NAT pool
//	ct_nat                              apply the connection's NAT binding
//
// goto must be the last action and is encoded as the rule's next table.
// NAT pools referenced by dnat/snat are declared with:
//
//	pool <id> <ip>:<port>[,<ip>:<port>...]
package ofp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("ofp: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Load parses a pipeline program from r.
func Load(r io.Reader) (*pipeline.Pipeline, error) {
	var p *pipeline.Pipeline
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		switch verb {
		case "pipeline":
			if p != nil {
				return nil, errf(lineNo, "duplicate pipeline declaration")
			}
			name := strings.TrimSpace(rest)
			if name == "" {
				return nil, errf(lineNo, "pipeline needs a name")
			}
			p = pipeline.New(name)
		case "table":
			if p == nil {
				p = pipeline.New("unnamed")
			}
			if err := parseTable(p, rest, lineNo); err != nil {
				return nil, err
			}
		case "rule":
			if p == nil {
				return nil, errf(lineNo, "rule before any table")
			}
			if err := parseRule(p, rest, lineNo); err != nil {
				return nil, err
			}
		case "pool":
			if p == nil {
				p = pipeline.New("unnamed")
			}
			if err := parsePool(p, rest, lineNo); err != nil {
				return nil, err
			}
		default:
			return nil, errf(lineNo, "unknown statement %q", verb)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ofp: %w", err)
	}
	if p == nil || p.NumTables() == 0 {
		return nil, fmt.Errorf("ofp: no tables declared")
	}
	return p, nil
}

// LoadString is Load over a string.
func LoadString(s string) (*pipeline.Pipeline, error) { return Load(strings.NewReader(s)) }

// parseTable handles: <id> <name> [fields=...] [miss=...]
func parseTable(p *pipeline.Pipeline, rest string, line int) error {
	parts := strings.Fields(rest)
	if len(parts) < 2 {
		return errf(line, "table needs: table <id> <name> [fields=...] [miss=...]")
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		return errf(line, "bad table id %q", parts[0])
	}
	name := parts[1]
	var fields flow.FieldSet
	missNext := pipeline.NoTable
	var missActs []flow.Action
	haveMiss := false
	for _, opt := range parts[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return errf(line, "bad table option %q", opt)
		}
		switch k {
		case "fields":
			for _, fn := range strings.Split(v, ",") {
				f, ok := flow.FieldByName(strings.TrimSpace(fn))
				if !ok {
					return errf(line, "unknown field %q", fn)
				}
				fields = fields.Add(f)
			}
		case "miss":
			haveMiss = true
			switch {
			case v == "drop":
				missActs = []flow.Action{flow.Drop()}
			case strings.HasPrefix(v, "goto(") && strings.HasSuffix(v, ")"):
				n, err := strconv.Atoi(v[5 : len(v)-1])
				if err != nil {
					return errf(line, "bad miss goto %q", v)
				}
				missNext = n
			case strings.HasPrefix(v, "output(") && strings.HasSuffix(v, ")"):
				n, err := strconv.ParseUint(v[7:len(v)-1], 10, 16)
				if err != nil {
					return errf(line, "bad miss output %q", v)
				}
				missActs = []flow.Action{flow.Output(uint16(n))}
			default:
				return errf(line, "bad miss %q (want drop, goto(n), or output(n))", v)
			}
		default:
			return errf(line, "unknown table option %q", k)
		}
	}
	if p.Table(id) != nil {
		return errf(line, "duplicate table %d", id)
	}
	if fields.Empty() {
		fields = flow.AllFields
	}
	p.AddTable(id, name, fields)
	if haveMiss {
		p.SetMiss(id, missNext, missActs...)
	}
	return nil
}

// parseRule handles: table=<id> [priority=<p>] [<match terms>] actions=...
func parseRule(p *pipeline.Pipeline, rest string, line int) error {
	matchPart, actionsPart, ok := cutActions(rest)
	if !ok {
		return errf(line, "rule needs actions=...")
	}
	tableID := -1
	priority := 0
	var matchTerms []string
	var terms []string
	for _, t := range splitTop(matchPart) {
		terms = append(terms, strings.Fields(t)...)
	}
	for _, term := range terms {
		term = strings.TrimSuffix(strings.TrimSpace(term), ",")
		if term == "" {
			continue
		}
		switch {
		case strings.HasPrefix(term, "table="):
			n, err := strconv.Atoi(term[len("table="):])
			if err != nil {
				return errf(line, "bad table= %q", term)
			}
			tableID = n
		case strings.HasPrefix(term, "priority="):
			n, err := strconv.Atoi(term[len("priority="):])
			if err != nil {
				return errf(line, "bad priority= %q", term)
			}
			priority = n
		default:
			matchTerms = append(matchTerms, term)
		}
	}
	if tableID < 0 {
		return errf(line, "rule needs table=<id>")
	}
	m, err := flow.ParseMatch(strings.Join(matchTerms, ","))
	if err != nil {
		return errf(line, "bad match: %v", err)
	}
	acts, next, err := parseActions(actionsPart, line)
	if err != nil {
		return err
	}
	if _, err := p.AddRule(tableID, m, priority, acts, next); err != nil {
		return errf(line, "%v", err)
	}
	return nil
}

// parsePool handles: <id> <ip>:<port>[,<ip>:<port>...]
func parsePool(p *pipeline.Pipeline, rest string, line int) error {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return errf(line, "pool needs: pool <id> <ip>:<port>[,<ip>:<port>...]")
	}
	id, err := strconv.ParseUint(parts[0], 10, 16)
	if err != nil {
		return errf(line, "bad pool id %q", parts[0])
	}
	if p.NATPool(uint16(id)) != nil {
		return errf(line, "duplicate pool %d", id)
	}
	var targets []pipeline.NATTarget
	for _, item := range strings.Split(parts[1], ",") {
		ipStr, portStr, ok := strings.Cut(item, ":")
		if !ok {
			return errf(line, "bad pool target %q (want ip:port)", item)
		}
		ip, err := flow.ParseValue(flow.FieldIPDst, ipStr)
		if err != nil {
			return errf(line, "bad pool target ip: %v", err)
		}
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil {
			return errf(line, "bad pool target port %q", portStr)
		}
		targets = append(targets, pipeline.NATTarget{IP: ip, Port: port})
	}
	if len(targets) == 0 {
		return errf(line, "pool %d has no targets", id)
	}
	p.SetNATPool(uint16(id), targets)
	return nil
}

// cutActions splits "... actions=..." at the top-level actions= key.
func cutActions(s string) (match, actions string, ok bool) {
	i := strings.Index(s, "actions=")
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSuffix(strings.TrimSpace(s[:i]), ","), s[i+len("actions="):], true
}

// splitTop splits on commas not inside parentheses.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// parseActions parses the action list, returning the actions and the goto
// target (NoTable if none).
func parseActions(s string, line int) ([]flow.Action, int, error) {
	next := pipeline.NoTable
	var acts []flow.Action
	items := splitTop(s)
	for idx, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		switch {
		case item == "drop":
			acts = append(acts, flow.Drop())
		case item == "ct_nat":
			acts = append(acts, flow.CtNAT())
		case strings.HasPrefix(item, "dnat(") && strings.HasSuffix(item, ")"):
			n, err := strconv.ParseUint(item[5:len(item)-1], 10, 16)
			if err != nil {
				return nil, 0, errf(line, "bad dnat %q", item)
			}
			acts = append(acts, flow.DNAT(uint16(n)))
		case strings.HasPrefix(item, "snat(") && strings.HasSuffix(item, ")"):
			n, err := strconv.ParseUint(item[5:len(item)-1], 10, 16)
			if err != nil {
				return nil, 0, errf(line, "bad snat %q", item)
			}
			acts = append(acts, flow.SNAT(uint16(n)))
		case strings.HasPrefix(item, "output(") && strings.HasSuffix(item, ")"):
			n, err := strconv.ParseUint(item[7:len(item)-1], 10, 16)
			if err != nil {
				return nil, 0, errf(line, "bad output %q", item)
			}
			acts = append(acts, flow.Output(uint16(n)))
		case strings.HasPrefix(item, "goto(") && strings.HasSuffix(item, ")"):
			n, err := strconv.Atoi(item[5 : len(item)-1])
			if err != nil {
				return nil, 0, errf(line, "bad goto %q", item)
			}
			if idx != len(items)-1 {
				return nil, 0, errf(line, "goto must be the last action")
			}
			next = n
		case strings.HasPrefix(item, "set_field(") && strings.HasSuffix(item, ")"):
			body := item[len("set_field(") : len(item)-1]
			fn, val, ok := strings.Cut(body, "=")
			if !ok {
				return nil, 0, errf(line, "bad set_field %q", item)
			}
			f, ok := flow.FieldByName(strings.TrimSpace(fn))
			if !ok {
				return nil, 0, errf(line, "unknown field %q", fn)
			}
			valStr, maskStr, hasMask := strings.Cut(val, "/")
			v, err := flow.ParseValue(f, valStr)
			if err != nil {
				return nil, 0, errf(line, "bad set_field value: %v", err)
			}
			if hasMask {
				bits, err := strconv.ParseUint(maskStr, 0, 64)
				if err != nil {
					return nil, 0, errf(line, "bad set_field mask %q", maskStr)
				}
				acts = append(acts, flow.SetFieldMasked(f, v, bits))
			} else {
				acts = append(acts, flow.SetField(f, v))
			}
		default:
			return nil, 0, errf(line, "unknown action %q", item)
		}
	}
	return acts, next, nil
}

// Dump writes a pipeline program that Load parses back into an equivalent
// pipeline: same tables, rules, priorities, actions, and miss behaviour.
func Dump(w io.Writer, p *pipeline.Pipeline) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pipeline %s\n", p.Name)
	tables := p.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
	for _, t := range tables {
		fmt.Fprintf(bw, "table %d %s", t.ID, t.Name)
		if t.MatchFields != flow.AllFields && !t.MatchFields.Empty() {
			names := make([]string, 0, t.MatchFields.Len())
			for _, f := range t.MatchFields.Fields() {
				names = append(names, f.String())
			}
			fmt.Fprintf(bw, " fields=%s", strings.Join(names, ","))
		}
		if miss := formatMiss(t); miss != "" {
			fmt.Fprintf(bw, " miss=%s", miss)
		}
		fmt.Fprintln(bw)
	}
	for _, id := range p.NATPoolIDs() {
		targets := make([]string, 0, len(p.NATPool(id)))
		for _, tg := range p.NATPool(id) {
			targets = append(targets, fmt.Sprintf("%s:%d",
				flow.FormatValue(flow.FieldIPDst, tg.IP), tg.Port))
		}
		fmt.Fprintf(bw, "pool %d %s\n", id, strings.Join(targets, ","))
	}
	for _, t := range tables {
		for _, r := range t.Rules() {
			fmt.Fprintf(bw, "rule table=%d priority=%d", t.ID, r.Priority)
			if m := r.Match.String(); m != "*" {
				fmt.Fprintf(bw, ", %s", m)
			}
			fmt.Fprintf(bw, ", actions=%s\n", formatActions(r.Actions, r.Next))
		}
	}
	return bw.Flush()
}

func formatMiss(t *pipeline.Table) string {
	if t.MissNext != pipeline.NoTable {
		return fmt.Sprintf("goto(%d)", t.MissNext)
	}
	if len(t.MissActions) == 1 {
		switch t.MissActions[0].Type {
		case flow.ActionDrop:
			return "drop"
		case flow.ActionOutput:
			return fmt.Sprintf("output(%d)", t.MissActions[0].Value)
		}
	}
	return ""
}

func formatActions(acts []flow.Action, next int) string {
	var parts []string
	for _, a := range acts {
		switch a.Type {
		case flow.ActionSetField:
			if a.Mask == a.Field.MaxValue() {
				parts = append(parts, fmt.Sprintf("set_field(%s=%s)", a.Field, flow.FormatValue(a.Field, a.Value)))
			} else {
				parts = append(parts, fmt.Sprintf("set_field(%s=%d/%#x)", a.Field, a.Value, a.Mask))
			}
		case flow.ActionOutput:
			parts = append(parts, fmt.Sprintf("output(%d)", a.Value))
		case flow.ActionDrop:
			parts = append(parts, "drop")
		case flow.ActionDNAT:
			parts = append(parts, fmt.Sprintf("dnat(%d)", a.Value))
		case flow.ActionSNAT:
			parts = append(parts, fmt.Sprintf("snat(%d)", a.Value))
		case flow.ActionCtNAT:
			parts = append(parts, "ct_nat")
		}
	}
	if next != pipeline.NoTable {
		parts = append(parts, fmt.Sprintf("goto(%d)", next))
	}
	if len(parts) == 0 {
		parts = []string{"drop"}
	}
	return strings.Join(parts, ",")
}
