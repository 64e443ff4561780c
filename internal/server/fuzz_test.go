package server_test

// Fuzz targets for the HTTP request decoders: arbitrary bytes posted at
// /v1/query and /v1/update must produce a well-formed HTTP status —
// malformed bodies 400, semantically invalid ops 409 — and never a panic.
// `go test` runs the seed corpus as regression tests; `go test -fuzz` digs.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"structix"
	"structix/internal/gtest"
	"structix/internal/server"
)

func fuzzHandler() (http.Handler, *structix.DB) {
	g, _, _, _ := gtest.Fig2()
	db := structix.NewDB(structix.BuildOneIndex(g))
	return server.New(db, server.Config{}).Handler(), db
}

func FuzzDecodeQuery(f *testing.F) {
	h, _ := fuzzHandler()
	for _, seed := range []string{
		`{"expr":"//b/c"}`,
		`{"expr":"/a","count_only":true}`,
		`{"expr":"//*","limit":2}`,
		`{"expr":""}`,
		`{}`,
		`{`,
		`null`,
		`[]`,
		`"expr"`,
		`{"expr":"//b"} trailing garbage`,
		`{"unknown_field":1}`,
		`{"expr":"///((("}`,
		`{"expr":"//b","limit":-1}`,
		"\xff\xfe\x00",
		`{"expr":"` + string(bytes.Repeat([]byte("a/"), 512)) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzDecodeUpdate posts arbitrary bodies at /v1/update against one
// store, which every request may change: after each, the store must still
// have a live root and validate. The seeds include root deletions, direct
// and through a tree edge into the root, and node ids outside the 32-bit
// range, which once wrapped onto the root.
func FuzzDecodeUpdate(f *testing.F) {
	h, db := fuzzHandler()
	for _, seed := range []string{
		`{"ops":[{"op":"insert","u":2,"v":4,"kind":"idref"}]}`,
		`{"ops":[{"op":"insert","u":2,"v":4,"kind":"tree"},{"op":"delete","u":2,"v":4}]}`,
		`{"ops":[{"op":"delete","u":0,"v":1}]}`,
		`{"ops":[{"op":"addnode","label":"z","parent":1}]}`,
		`{"ops":[{"op":"delnode","node":8}]}`,
		`{"ops":[{"op":"delsub","node":99999}]}`,
		`{"ops":[{"op":"delsub","node":-5}]}`,
		`{"ops":[{"op":"insert","u":-1,"v":1}]}`,
		`{"ops":[{"op":"insert","u":2147483647,"v":0,"kind":"idref"}]}`,
		`{"ops":[{"op":"addnode","label":"z","parent":1},{"op":"delete","u":88888,"v":0}]}`,
		`{"ops":[{"op":"insert","u":1,"v":1,"kind":"idref"}]}`,
		`{"ops":[{"op":"nonsense"}]}`,
		`{"ops":[{"op":"insert"}]}`,
		`{"ops":[{"op":"addnode"}]}`,
		`{"ops":[]}`,
		`{"ops":null}`,
		`{}`,
		`{`,
		`[]`,
		`{"ops":[{"op":"insert","u":2,"v":4}]} extra`,
		`{"ops":[{"op":"insert","u":"2","v":4}]}`,
		"\x00\x01\x02",
		`{"ops":[{"op":"delnode","node":0}]}`,
		`{"ops":[{"op":"delsub","node":0}]}`,
		`{"ops":[{"op":"insert","u":2,"v":0,"kind":"tree"},{"op":"delsub","node":2}]}`,
		`{"ops":[{"op":"delnode","node":4294967296}]}`,
		`{"ops":[{"op":"delsub","node":4294967296}]}`,
		`{"ops":[{"op":"addnode","label":"z","parent":4294967297}]}`,
		`{"ops":[{"op":"insert","u":4294967298,"v":-4294967296}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if s := db.Snapshot().Shard(0).Data(); !s.Alive(s.Root()) {
			t.Fatalf("body %q left the store without a live root", body)
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("body %q left the store invalid: %v", body, err)
		}
	})
}
