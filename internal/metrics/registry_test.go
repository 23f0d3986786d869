package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestRegistryGatherDeterministic(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	// Register out of name order; Gather must sort.
	r.RegisterGauge("b.gauge", func() float64 { return 2.5 })
	r.RegisterCounter("a.counter", func() float64 { hits++; return float64(hits) })
	r.Register("c.multi", func() []Sample {
		return []Sample{
			{Name: "c.multi", Label: "x", Kind: KindCounter, Value: 1},
			{Name: "c.multi", Label: "y", Kind: KindCounter, Value: 2},
		}
	})
	got := r.Gather()
	names := make([]string, len(got))
	for i, s := range got {
		names[i] = s.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("gather not name-sorted: %v", names)
	}
	if got[0].Name != "a.counter" || got[0].Value != 1 {
		t.Fatalf("first sample: %+v", got[0])
	}
	if got[3].Label != "y" || got[3].Value != 2 {
		t.Fatalf("multi collector order: %+v", got[3])
	}
	if names2 := r.Names(); len(names2) != 3 || names2[0] != "a.counter" {
		t.Fatalf("Names: %v", names2)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge("dup", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterCounter("dup", func() float64 { return 0 })
}

func TestRegistryExports(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge("g.nan", func() float64 { return math.NaN() })
	r.RegisterCounter("a.count", func() float64 { return 3 })
	cdf := &CDF{}
	for i := 1; i <= 100; i++ {
		cdf.Add(float64(i))
	}
	r.Register("lat", func() []Sample { return CDFSamples("lat", cdf) })

	var nd strings.Builder
	if err := r.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(nd.String(), "\n"), "\n")
	if lines[0] != `{"name":"a.count","label":"","kind":"counter","value":3}` {
		t.Fatalf("ndjson[0]: %s", lines[0])
	}
	if !strings.Contains(nd.String(), `{"name":"g.nan","label":"","kind":"gauge","value":null}`) {
		t.Fatalf("NaN not exported as null:\n%s", nd.String())
	}
	if !strings.Contains(nd.String(), `"label":"p95"`) {
		t.Fatalf("cdf quantiles missing:\n%s", nd.String())
	}

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "name,label,kind,value\na.count,,counter,3\n") {
		t.Fatalf("csv:\n%s", csv.String())
	}
	if !strings.Contains(r.Render(), "lat{p50}") {
		t.Fatalf("render:\n%s", r.Render())
	}
}
