package geo

import (
	"testing"
	"time"
)

func TestParseTier(t *testing.T) {
	cases := []struct {
		in   string
		want Tier
		err  bool
	}{
		{"strong", Tier{Kind: Strong}, false},
		{"eventual", Tier{Kind: Eventual}, false},
		{"bounded:500ms", Tier{Kind: Bounded, Bound: 500 * time.Millisecond}, false},
		{"bounded:2s", Tier{Kind: Bounded, Bound: 2 * time.Second}, false},
		{"bounded:-1s", Tier{}, true},
		{"bounded:", Tier{}, true},
		{"linearizable", Tier{}, true},
		{"", Tier{}, true},
	}
	for _, c := range cases {
		got, err := ParseTier(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseTier(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseTier(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if s := (Tier{Kind: Bounded, Bound: 500 * time.Millisecond}).String(); s != "bounded:500ms" {
		t.Fatalf("String() = %q", s)
	}
}

func TestParseZoneSpecRoundTrip(t *testing.T) {
	zs, err := ParseZoneSpec("n1=us,n2=eu,n3=ap")
	if err != nil {
		t.Fatal(err)
	}
	if zs["n2"] != "eu" || len(zs) != 3 {
		t.Fatalf("parsed %v", zs)
	}
	if got := FormatZoneSpec(zs); got != "n1=us,n2=eu,n3=ap" {
		t.Fatalf("FormatZoneSpec = %q", got)
	}
	for _, bad := range []string{"n1", "=us", "n1=", "n1=us,n1=eu"} {
		if _, err := ParseZoneSpec(bad); err == nil {
			t.Fatalf("ParseZoneSpec(%q) accepted", bad)
		}
	}
	if zs, err := ParseZoneSpec(""); err != nil || zs != nil {
		t.Fatalf("empty spec: %v %v", zs, err)
	}
}

func TestAssignRoundRobin(t *testing.T) {
	zs := AssignRoundRobin([]string{"a", "b", "c", "d"}, []string{"us", "eu", "ap"})
	want := map[string]string{"a": "us", "b": "eu", "c": "ap", "d": "us"}
	for n, z := range want {
		if zs[n] != z {
			t.Fatalf("AssignRoundRobin: %s = %q, want %q", n, zs[n], z)
		}
	}
	if AssignRoundRobin([]string{"a"}, nil) != nil {
		t.Fatal("no zones must assign nothing")
	}
}
