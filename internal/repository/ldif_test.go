package repository

import (
	"encoding/base64"
	"fmt"
	"strings"
)

// readLDIF is the tests' LDIF reader: records separated by blank lines,
// "attr: value" and "attr:: base64" lines, leading-space continuation
// lines and '#' comments. The repository only writes LDIF (policyctl's
// export); reading it back checks that what WriteLDIF produces is LDIF
// that reproduces the entries.
func readLDIF(src string) ([]*Entry, error) {
	var entries []*Entry
	var lines []string // unfolded lines of the current record
	flush := func() error {
		if len(lines) == 0 {
			return nil
		}
		var e *Entry
		for _, line := range lines {
			attr, val, ok := strings.Cut(line, ":")
			if !ok || attr == "" {
				return fmt.Errorf("malformed line %q", line)
			}
			if b64, isB64 := strings.CutPrefix(val, ":"); isB64 {
				raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(b64))
				if err != nil {
					return fmt.Errorf("bad base64 in %q: %w", line, err)
				}
				val = string(raw)
			}
			val = strings.TrimSpace(val)
			switch {
			case e == nil && strings.EqualFold(attr, "dn"):
				e = NewEntry(DN(val))
			case e == nil || strings.EqualFold(attr, "dn"):
				return fmt.Errorf("record must hold one leading dn:, got %q", line)
			default:
				e.Add(attr, val)
			}
		}
		entries = append(entries, e)
		lines = nil
		return nil
	}
	for _, line := range strings.Split(src, "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case line == "":
			if err := flush(); err != nil {
				return nil, err
			}
		case line[0] == ' ' || line[0] == '\t':
			if len(lines) == 0 {
				return nil, fmt.Errorf("continuation with no preceding line")
			}
			lines[len(lines)-1] += strings.TrimLeft(line, " \t")
		default:
			lines = append(lines, line)
		}
	}
	return entries, flush()
}

// ldifString renders entries with WriteLDIF.
func ldifString(entries []*Entry) string {
	var sb strings.Builder
	_ = WriteLDIF(&sb, entries)
	return sb.String()
}
