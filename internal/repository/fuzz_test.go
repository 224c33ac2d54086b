package repository

import "testing"

// FuzzParseLDIF ensures every entry set the tests' LDIF reader accepts
// round-trips through WriteLDIF: the export re-parses to the same
// entries, whatever bytes the values hold.
func FuzzParseLDIF(f *testing.F) {
	f.Add(sampleLDIF)
	f.Add("dn: o=x\na: b\n")
	f.Add("dn: o=x\na:: aGk=\n")
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := readLDIF(src)
		if err != nil {
			return
		}
		out := ldifString(entries)
		back, err := readLDIF(out)
		if err != nil {
			t.Fatalf("written LDIF does not re-parse: %v\n%s", err, out)
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip %d vs %d entries", len(back), len(entries))
		}
		for i := range back {
			if back[i].String() != entries[i].String() {
				t.Fatalf("entry %d diverged:\n%s\nvs\n%s", i, back[i], entries[i])
			}
		}
	})
}

// FuzzParseFilter ensures the filter parser never panics and accepted
// filters round-trip through String.
func FuzzParseFilter(f *testing.F) {
	f.Add("(&(objectClass=qosPolicy)(!(role=*))(|(a=1)(b>=2)))")
	f.Add("(cn=ab*cd)")
	f.Fuzz(func(t *testing.T, src string) {
		flt, err := ParseFilter(src)
		if err != nil {
			return
		}
		if _, err := ParseFilter(flt.String()); err != nil {
			t.Fatalf("filter String does not re-parse: %v (%s)", err, flt.String())
		}
	})
}
