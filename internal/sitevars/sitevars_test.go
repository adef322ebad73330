package sitevars

import (
	"errors"
	"strings"
	"testing"

	"configerator/internal/cdl"
)

// set is an update that lands: evaluate, then record.
func set(st *Store, name, expr string) ([]string, error) {
	v, js, warnings, err := st.evaluate(name, expr)
	if err != nil {
		return nil, err
	}
	st.record(name, v, js)
	return warnings, nil
}

func TestSetAndGet(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "max_upload_mb", "25"); err != nil {
		t.Fatal(err)
	}
	sv, ok := st.Get("max_upload_mb")
	if !ok || string(sv.JSON) != "25" {
		t.Fatalf("sv = %+v", sv)
	}
	if sv.InferredType() != TypeInt {
		t.Errorf("inferred = %v", sv.InferredType())
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestExpressionValues(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "ramp", `{rate: 0.05 * 2, hosts: ["a", "b"]}`); err != nil {
		t.Fatal(err)
	}
	sv, _ := st.Get("ramp")
	if string(sv.JSON) != `{"hosts":["a","b"],"rate":0.1}` {
		t.Errorf("JSON = %s", sv.JSON)
	}
}

func TestSyntaxErrorRejected(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "bad", "1 +"); err == nil {
		t.Fatal("expected syntax error")
	}
}

func TestCheckerRejects(t *testing.T) {
	st := NewStore()
	st.SetChecker("quota", func(v cdl.Value) error {
		if n, ok := v.(cdl.Int); !ok || n < 0 {
			return errors.New("quota must be a nonnegative int")
		}
		return nil
	})
	if _, err := set(st, "quota", "10"); err != nil {
		t.Fatal(err)
	}
	if _, err := set(st, "quota", "-5"); err == nil {
		t.Fatal("checker should reject negative quota")
	}
	if _, err := set(st, "quota", `"lots"`); err == nil {
		t.Fatal("checker should reject string quota")
	}
}

func TestTypeDeviationWarning(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "flag", "true"); err != nil {
		t.Fatal(err)
	}
	warns, err := set(st, "flag", `"yes"`) // typo'd string where bool lived
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "deviates") {
		t.Fatalf("warns = %v", warns)
	}
	// Conforming update warns nothing.
	warns, _ = set(st, "flag", `"no"`) // schema generalized to the override
	_ = warns
}

func TestFieldTypeInference(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "cfg", `{limit: 10, when: "2015-10-04", blob: "{\"a\":1}", note: "hello"}`); err != nil {
		t.Fatal(err)
	}
	sv, _ := st.Get("cfg")
	if sv.FieldType("limit") != TypeInt {
		t.Errorf("limit = %v", sv.FieldType("limit"))
	}
	if sv.FieldType("when") != TypeStringTimestamp {
		t.Errorf("when = %v", sv.FieldType("when"))
	}
	if sv.FieldType("blob") != TypeStringJSON {
		t.Errorf("blob = %v", sv.FieldType("blob"))
	}
	if sv.FieldType("note") != TypeStringGeneral {
		t.Errorf("note = %v", sv.FieldType("note"))
	}
	// A JSON-string field receiving a non-JSON string warns.
	warns, err := set(st, "cfg", `{limit: 10, when: "2015-10-05", blob: "oops", note: "x"}`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, `"blob"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no blob warning in %v", warns)
	}
}

func TestGeneralStringAcceptsRefinements(t *testing.T) {
	st := NewStore()
	if _, err := set(st, "s", `"just text"`); err != nil {
		t.Fatal(err)
	}
	warns, err := set(st, "s", `"2015-10-04"`) // timestamp is still a string
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("warns = %v", warns)
	}
}

func TestIntToFloatGeneralizes(t *testing.T) {
	st := NewStore()
	set(st, "rate", "1")
	warns, _ := set(st, "rate", "1.5")
	if len(warns) != 0 {
		t.Errorf("int->float should be tolerated, warns = %v", warns)
	}
	sv, _ := st.Get("rate")
	if sv.InferredType() != TypeFloat {
		t.Errorf("inferred = %v", sv.InferredType())
	}
	// And back to int conforms (float schema accepts ints).
	warns, _ = set(st, "rate", "2")
	if len(warns) != 0 {
		t.Errorf("float schema should accept int, warns = %v", warns)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		v    cdl.Value
		want TypeClass
	}{
		{cdl.Null{}, TypeNull},
		{cdl.Bool(true), TypeBool},
		{cdl.Int(3), TypeInt},
		{cdl.Float(2.5), TypeFloat},
		{cdl.Str("plain"), TypeStringGeneral},
		{cdl.Str(`{"a":1}`), TypeStringJSON},
		{cdl.Str(`[1,2]`), TypeStringJSON},
		{cdl.Str("2015-10-04T12:00:00Z"), TypeStringTimestamp},
		{cdl.Str("1443916800"), TypeStringTimestamp},
		{cdl.Str("12"), TypeStringGeneral}, // small number: not a timestamp
		{cdl.List{}, TypeList},
		{cdl.Map{}, TypeMap},
	}
	for _, c := range cases {
		if got := Classify(c.v); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestTypeClassString(t *testing.T) {
	if TypeStringJSON.String() != "json-string" || TypeMap.String() != "map" {
		t.Error("TypeClass.String broken")
	}
	if TypeUnknown.String() != "unknown" {
		t.Error("unknown")
	}
}

func TestNewFieldLearnedWithoutWarning(t *testing.T) {
	st := NewStore()
	set(st, "cfg", `{a: 1}`)
	warns, err := set(st, "cfg", `{a: 2, b: "new"}`)
	if err != nil || len(warns) != 0 {
		t.Fatalf("warns=%v err=%v", warns, err)
	}
	sv, _ := st.Get("cfg")
	if sv.FieldType("b") != TypeStringGeneral {
		t.Errorf("b = %v", sv.FieldType("b"))
	}
}
