package repository

import (
	"encoding/base64"
	"fmt"
	"io"
	"strings"
)

// needsBase64 reports whether an LDIF value must be base64-encoded.
func needsBase64(v string) bool {
	if v == "" {
		return false
	}
	if v[0] == ' ' || v[0] == ':' || v[0] == '<' {
		return true
	}
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 || v[i] > 0x7e {
			return true
		}
	}
	return strings.HasSuffix(v, " ")
}

// WriteLDIF serializes entries in LDIF form: records separated by blank
// lines, "attr: value" lines, and "attr:: base64" for values LDIF cannot
// carry verbatim. This is the upload format the prototype's policy
// administration tool produced ("This gets translated into an LDIF file
// which can be easily uploaded into LDAP"); policyctl exports with it.
func WriteLDIF(w io.Writer, entries []*Entry) error {
	for i, e := range entries {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "dn: %s\n", e.DN); err != nil {
			return err
		}
		for _, attr := range e.Attributes() {
			for _, v := range e.GetAll(attr) {
				var err error
				if needsBase64(v) {
					_, err = fmt.Fprintf(w, "%s:: %s\n", attr, base64.StdEncoding.EncodeToString([]byte(v)))
				} else {
					_, err = fmt.Fprintf(w, "%s: %s\n", attr, v)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
