package classbench

import (
	"fmt"
	"strings"

	"gigaflow/internal/flow"
)

// fieldKey identifies a rule's match on one field: the masked value plus
// the mask itself (two rules share a field only when they constrain it
// identically).
func fieldKey(m flow.Match, f flow.FieldID) string {
	return fmt.Sprintf("%x/%x", m.Key.Get(f), m.Mask.Get(f))
}

// tupleKey identifies a rule's match restricted to a field subset.
func tupleKey(m flow.Match, fields []flow.FieldID) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = fieldKey(m, f)
	}
	return strings.Join(parts, "|")
}

// combinations enumerates all k-subsets of fields.
func combinations(fields []flow.FieldID, k int) [][]flow.FieldID {
	var out [][]flow.FieldID
	var rec func(start int, cur []flow.FieldID)
	rec = func(start int, cur []flow.FieldID) {
		if len(cur) == k {
			out = append(out, append([]flow.FieldID(nil), cur...))
			return
		}
		for i := start; i < len(fields); i++ {
			rec(i+1, append(cur, fields[i]))
		}
	}
	rec(0, nil)
	return out
}

// Sharing reproduces the Figure 4 analysis: for each sub-tuple size k in
// 1..5, the average number of rules sharing an identical k-field sub-tuple
// (averaged over all C(5,k) field combinations). Index 0 is unused.
func Sharing(rules []Rule) [6]float64 {
	var out [6]float64
	for k := 1; k <= 5; k++ {
		combos := combinations(TupleFields, k)
		var total float64
		for _, combo := range combos {
			groups := make(map[string]int)
			for _, r := range rules {
				groups[tupleKey(r.Match, combo)]++
			}
			if len(groups) > 0 {
				total += float64(len(rules)) / float64(len(groups))
			}
		}
		out[k] = total / float64(len(combos))
	}
	return out
}

// RuleWeights assigns each rule a locality weight: the number of other
// rules it shares single-field sub-tuples with, summed over the 5-tuple
// fields. The high-locality traffic pattern of §6.1 draws rules
// proportionally to these weights, concentrating traffic on rules whose
// header tuples recur — maximising sub-traversal sharing opportunities.
func RuleWeights(rules []Rule) []float64 {
	counts := make([]map[string]int, len(TupleFields))
	for i, f := range TupleFields {
		counts[i] = make(map[string]int)
		for _, r := range rules {
			counts[i][fieldKey(r.Match, f)]++
		}
	}
	weights := make([]float64, len(rules))
	for ri, r := range rules {
		w := 0.0
		for i, f := range TupleFields {
			w += float64(counts[i][fieldKey(r.Match, f)])
		}
		weights[ri] = w
	}
	return weights
}
