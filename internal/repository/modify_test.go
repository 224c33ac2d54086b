package repository

import (
	"testing"
)

func modRig(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory(QoSSchema())
	if err := d.EnsureParents("cn=s1,ou=executables,o=qos"); err != nil {
		t.Fatal(err)
	}
	e := NewEntry("cn=s1,ou=executables,o=qos").
		Set("objectClass", "qosSensor").
		Set("cn", "s1").
		Set("qosAttribute", "frame_rate")
	if err := d.Add(e); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestModifyAddValues(t *testing.T) {
	d := modRig(t)
	dn := DN("cn=s1,ou=executables,o=qos")
	if err := d.ModifyAttrs(dn, Mod{Op: ModAdd, Attr: "qosAttribute", Values: []string{"jitter_rate"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Get(dn).GetAll("qosAttribute"); len(got) != 2 {
		t.Errorf("values = %v", got)
	}
	// Duplicate add fails and leaves the entry untouched.
	err := d.ModifyAttrs(dn,
		Mod{Op: ModAdd, Attr: "description", Values: []string{"x"}},
		Mod{Op: ModAdd, Attr: "qosAttribute", Values: []string{"jitter_rate"}})
	if err == nil {
		t.Fatal("duplicate value add succeeded")
	}
	if d.Get(dn).Has("description") {
		t.Error("failed modify was partially applied")
	}
}

func TestModifyDeleteValuesAndAttr(t *testing.T) {
	d := modRig(t)
	dn := DN("cn=s1,ou=executables,o=qos")
	_ = d.ModifyAttrs(dn, Mod{Op: ModAdd, Attr: "qosAttribute", Values: []string{"jitter_rate"}})
	if err := d.ModifyAttrs(dn, Mod{Op: ModDelete, Attr: "qosAttribute", Values: []string{"frame_rate"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Get(dn).GetAll("qosAttribute"); len(got) != 1 || got[0] != "jitter_rate" {
		t.Errorf("values = %v", got)
	}
	// Deleting the whole attribute would violate the schema (qosSensor
	// requires qosAttribute) and must be rejected atomically.
	if err := d.ModifyAttrs(dn, Mod{Op: ModDelete, Attr: "qosAttribute"}); err == nil {
		t.Fatal("schema-violating delete succeeded")
	}
	if !d.Get(dn).Has("qosAttribute") {
		t.Error("rejected delete was applied")
	}
	// Deleting an absent value fails.
	if err := d.ModifyAttrs(dn, Mod{Op: ModDelete, Attr: "qosAttribute", Values: []string{"ghost"}}); err == nil {
		t.Error("delete of absent value succeeded")
	}
}

func TestModifyReplace(t *testing.T) {
	d := modRig(t)
	dn := DN("cn=s1,ou=executables,o=qos")
	if err := d.ModifyAttrs(dn, Mod{Op: ModReplace, Attr: "qosAttribute", Values: []string{"buffer_size"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Get(dn).Get("qosAttribute"); got != "buffer_size" {
		t.Errorf("replaced value = %q", got)
	}
	// Replace-with-nothing deletes; rejected here by schema.
	if err := d.ModifyAttrs(dn, Mod{Op: ModReplace, Attr: "qosAttribute"}); err == nil {
		t.Error("schema-violating replace succeeded")
	}
}

func TestModifyUnknownEntryAndAddNoValues(t *testing.T) {
	d := modRig(t)
	if err := d.ModifyAttrs("cn=ghost,o=qos", Mod{Op: ModReplace, Attr: "x", Values: []string{"1"}}); err == nil {
		t.Error("modify of missing entry succeeded")
	}
	if err := d.ModifyAttrs("cn=s1,ou=executables,o=qos", Mod{Op: ModAdd, Attr: "x"}); err == nil {
		t.Error("add with no values succeeded")
	}
}

func TestModifyAttrsOverTCP(t *testing.T) {
	d := modRig(t)
	srv, err := ServeDirectory(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The server's "modattrs" operation, as a remote client sends it.
	dn := DN("cn=s1,ou=executables,o=qos")
	modattrs := func(m wireMod) error {
		_, err := c.roundTrip(request{Op: "modattrs", DNs: string(dn), Mods: []wireMod{m}})
		return err
	}
	if err := modattrs(wireMod{Op: int(ModAdd), Attr: "qosAttribute", Values: []string{"jitter_rate"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Get(dn).GetAll("qosAttribute"); len(got) != 2 {
		t.Errorf("values after remote modify = %v", got)
	}
	if err := modattrs(wireMod{Op: int(ModDelete), Attr: "ghost"}); err == nil {
		t.Error("remote modify error did not propagate")
	}
}
