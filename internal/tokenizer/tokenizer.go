// Package tokenizer implements a deterministic word-level tokenizer with
// byte fallback, mirroring the role SentencePiece plays for Llama-family
// models in the paper's prototype.
//
// Design: the token id space is laid out as
//
//	[0, NumSpecial)            special tokens (<pad>, <unk>, <s>, </s>, chat markers)
//	[NumSpecial, NumSpecial+256)  byte-fallback tokens, one per byte value
//	[NumSpecial+256, VocabSize)   word tokens, assigned by a deterministic hash
//
// Word tokens are assigned by hashing the word into the word-id range.
// Collisions are allowed (two words may share an id, exactly like a real
// sub-word vocabulary maps many strings onto shared pieces); what matters
// for the reproduction is that tokenization is deterministic, reversible
// enough for round-trip tests via an id->string table populated on first
// use, and that identical text always yields identical token sequences —
// the property Prompt Cache depends on to reuse module states.
package tokenizer

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode"
)

// Special token ids. These occupy the bottom of the id space.
const (
	PadID       = iota // <pad>
	UnkID              // <unk> — also used as the parameter buffer token (§3.3)
	BosID              // <s>
	EosID              // </s>
	InstOpenID         // [INST]
	InstCloseID        // [/INST]
	SysOpenID          // <<SYS>>
	SysCloseID         // <</SYS>>
	NumSpecial
)

// specialNames maps special ids to their display forms.
var specialNames = [NumSpecial]string{
	"<pad>", "<unk>", "<s>", "</s>", "[INST]", "[/INST]", "<<SYS>>", "<</SYS>>",
}

// ByteBase is the first byte-fallback token id.
const ByteBase = NumSpecial

// WordBase is the first word-token id.
const WordBase = ByteBase + 256

// Tokenizer converts text to token ids and back. It is safe for
// concurrent use.
type Tokenizer struct {
	vocabSize int

	mu    sync.RWMutex
	names map[int]string // word id -> first word seen with that id
}

// New returns a tokenizer with the given vocabulary size. vocabSize must
// leave room for specials, bytes and at least one word token.
func New(vocabSize int) *Tokenizer {
	if vocabSize < WordBase+1 {
		panic(fmt.Sprintf("tokenizer: vocab size %d too small (min %d)", vocabSize, WordBase+1))
	}
	return &Tokenizer{vocabSize: vocabSize, names: make(map[int]string)}
}

// wordRange returns the number of word-token ids.
func (t *Tokenizer) wordRange() int { return t.vocabSize - WordBase }

// hashWord maps a word into [WordBase, vocabSize) deterministically.
func (t *Tokenizer) hashWord(w string) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(w); i++ {
		h ^= uint64(w[i])
		h *= prime
	}
	return WordBase + int(h%uint64(t.wordRange()))
}

// isWordRune reports whether r belongs in a word token.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

// Encode tokenizes text. Words (letter/digit/underscore runs, lowercased)
// become word tokens; every other non-space rune is emitted as its UTF-8
// bytes via byte-fallback tokens. Whitespace separates tokens and is not
// itself encoded, matching the paper's observation that whitespace does
// not alter the meaning of precomputed text (§3.3).
func (t *Tokenizer) Encode(text string) []int {
	var ids []int
	var word strings.Builder
	flush := func() {
		if word.Len() == 0 {
			return
		}
		w := strings.ToLower(word.String())
		id := t.hashWord(w)
		t.remember(id, w)
		ids = append(ids, id)
		word.Reset()
	}
	for _, r := range text {
		switch {
		case isWordRune(r):
			word.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			var buf [4]byte
			n := copy(buf[:], string(r))
			for _, b := range buf[:n] {
				ids = append(ids, ByteBase+int(b))
			}
		}
	}
	flush()
	return ids
}

func (t *Tokenizer) remember(id int, w string) {
	t.mu.RLock()
	_, ok := t.names[id]
	t.mu.RUnlock()
	if ok {
		return
	}
	t.mu.Lock()
	if _, ok := t.names[id]; !ok {
		t.names[id] = w
	}
	t.mu.Unlock()
}

// Decode renders token ids back to a human-readable string. Word tokens
// decode to the first word observed with that id (or "⟨id⟩" if the id was
// never produced by this tokenizer); byte tokens decode to their byte.
// Words are joined with single spaces; byte tokens attach to the
// preceding token without a space, mirroring typical detokenizers.
func (t *Tokenizer) Decode(ids []int) string {
	var sb strings.Builder
	needSpace := false
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, id := range ids {
		switch {
		case id >= 0 && id < NumSpecial:
			if needSpace {
				sb.WriteByte(' ')
			}
			sb.WriteString(specialNames[id])
			needSpace = true
		case id >= ByteBase && id < WordBase:
			b := byte(id - ByteBase)
			sb.WriteByte(b)
			// A complete ASCII byte (e.g. punctuation) permits a space
			// before the following word; UTF-8 lead/continuation bytes
			// must stay glued to their rune.
			needSpace = b < 0x80
		case id >= WordBase && id < t.vocabSize:
			if needSpace {
				sb.WriteByte(' ')
			}
			if w, ok := t.names[id]; ok {
				sb.WriteString(w)
			} else {
				// An id this tokenizer never produced (e.g. sampled by a
				// model): render a deterministic pronounceable
				// pseudo-word so generations read as text.
				sb.WriteString(pseudoWord(id))
			}
			needSpace = true
		default:
			if needSpace {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "⟨bad:%d⟩", id)
			needSpace = true
		}
	}
	return sb.String()
}

// SaveVocab writes the learned id→word table as JSON, so decodes stay
// human-readable across processes (e.g. a server restarted from a schema
// snapshot has never Encoded the schema text).
func (t *Tokenizer) SaveVocab(w io.Writer) error {
	t.mu.RLock()
	snapshot := make(map[int]string, len(t.names))
	for id, word := range t.names {
		snapshot[id] = word
	}
	t.mu.RUnlock()
	return json.NewEncoder(w).Encode(snapshot)
}

// LoadVocab merges a previously saved id→word table. Entries outside the
// word-id range or conflicting with already-learned words are skipped
// (first observation wins, matching Encode's behaviour).
func (t *Tokenizer) LoadVocab(r io.Reader) error {
	var snapshot map[int]string
	if err := json.NewDecoder(r).Decode(&snapshot); err != nil {
		return fmt.Errorf("tokenizer: loading vocab: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, word := range snapshot {
		if id < WordBase || id >= t.vocabSize || word == "" {
			continue
		}
		if _, taken := t.names[id]; !taken {
			t.names[id] = word
		}
	}
	return nil
}

// pseudoWord maps a token id to a stable pronounceable string built from
// alternating consonant-vowel syllables.
func pseudoWord(id int) string {
	const cons = "bdfgklmnprstvz"
	const vows = "aeiou"
	n := uint64(id)
	var sb strings.Builder
	syllables := 2 + int(n%3)
	for i := 0; i < syllables; i++ {
		sb.WriteByte(cons[n%uint64(len(cons))])
		n /= uint64(len(cons))
		sb.WriteByte(vows[n%uint64(len(vows))])
		n /= uint64(len(vows))
	}
	return sb.String()
}

// UnkRun returns n copies of the <unk> token, the parameter placeholder
// sequence used when encoding parameterized prompt modules (§3.3).
func UnkRun(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = UnkID
	}
	return ids
}
