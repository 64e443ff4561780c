package wal

// Internals the external tests (package wal_test, which may import
// internal/repl where package wal cannot) need.
const (
	SegMagic    = segMagic
	FrameHeader = frameHeader
	FrameChunk  = frameChunk
)

var (
	SegName            = segName
	AppendPinnedScript = appendPinnedScript
	AppendBody         = appendBody
)
