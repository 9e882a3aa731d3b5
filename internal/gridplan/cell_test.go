package gridplan

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func cellPlanForTest(workloads, schemes int) *CellPlan {
	p := &CellPlan{Version: PlanVersion}
	for w := 0; w < workloads; w++ {
		for s := 0; s < schemes; s++ {
			p.Cells = append(p.Cells, CellTask{
				Tag: "cfg", Grid: "scheme", Workload: fmt.Sprintf("wl%02d", w),
				Digest: fmt.Sprintf("d%02d", w), Scheme: fmt.Sprintf("s%d", s), Ord: s,
			})
		}
	}
	return p
}

func TestCellPlanValidate(t *testing.T) {
	p := cellPlanForTest(3, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := cellPlanForTest(2, 2)
	dup.Cells = append(dup.Cells, dup.Cells[0])
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate cell must fail validation")
	}
	bad := cellPlanForTest(2, 2)
	bad.Cells[0].Workload = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("cell without a workload must fail validation")
	}
	// Two ordinals for one scheme within a grid is inconsistent.
	ord := cellPlanForTest(2, 2)
	ord.Cells[2].Ord = 5
	if err := ord.Validate(); err == nil {
		t.Fatal("inconsistent scheme ordinal must fail validation")
	}
	// Two schemes sharing one ordinal is inconsistent too.
	shared := cellPlanForTest(1, 2)
	shared.Cells[1].Ord = 0
	if err := shared.Validate(); err == nil {
		t.Fatal("two schemes on one ordinal must fail validation")
	}
}

func TestCellPlanJSONLRoundTrip(t *testing.T) {
	p := cellPlanForTest(3, 5)
	var buf bytes.Buffer
	if err := WriteCellPlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCellPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatal("cell plan round trip lost data")
	}
	// Cell plans and profile plans must not be confused for each other.
	if _, err := ReadPlan(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadPlan accepted a cell plan")
	}
	var pbuf bytes.Buffer
	if err := WritePlan(&pbuf, planForTest(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCellPlan(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Fatal("ReadCellPlan accepted a profile plan")
	}
}

// TestCellKeyPreservesSchemeOrder pins the property the ordinal field
// exists for: after a key sort, each workload's cells appear in the
// grid's documented scheme order, not alphabetic scheme-name order.
func TestCellKeyPreservesSchemeOrder(t *testing.T) {
	p := &CellPlan{}
	schemes := []string{"GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"}
	for ord, s := range schemes {
		p.Cells = append(p.Cells, CellTask{Tag: "c", Grid: "scheme", Workload: "w", Scheme: s, Ord: ord})
	}
	p.Sort()
	for ord, s := range schemes {
		if p.Cells[ord].Scheme != s {
			t.Fatalf("after sort, position %d holds %s, want %s (documented order)", ord, p.Cells[ord].Scheme, s)
		}
	}
}
