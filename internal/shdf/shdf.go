// Package shdf implements SHDF ("Simple Hierarchical Data Format"), a small
// self-describing binary format for scientific array data modeled on HDF4,
// the format the paper's Rocketeer suite reads. Like HDF4 it stores tagged,
// reference-numbered objects — multidimensional scientific datasets (SDS)
// with element types and dimensions, named attributes, and vgroups that
// collect related objects — behind a directory, so tools can list a file's
// contents without reading the data.
//
// GODIVA itself never sees this package: per the paper, all file
// interpretation happens in developer-supplied read functions, and the
// experiments' synthetic GENx snapshots are written and read as SHDF files.
//
// On-disk layout (all integers little-endian):
//
//	header   "SHDF" + version u32
//	objects  payloads, back to back, each CRC-32 protected
//	dir      one entry per object: tag u16, ref u32, offset u64,
//	         length u64, crc u32, name (u16 len + bytes)
//	footer   dir offset u64, entry count u32, "FTR1"
package shdf

import (
	"errors"
	"fmt"
)

// Magic constants of the format.
const (
	magic       = "SHDF"
	footerMagic = "FTR1"
	version     = 1
	maxRank     = 16 // largest SDS rank a reader accepts
)

// Tag identifies an object's kind, as in HDF4's tag/ref pairs.
type Tag uint16

const (
	// TagSDS is a scientific dataset: a typed multidimensional array.
	TagSDS Tag = 0x02BE
	// TagAttr is a named attribute: a small typed scalar or string.
	TagAttr Tag = 0x03E6
	// TagVGroup is a vgroup: a named collection of member references.
	TagVGroup Tag = 0x07AD
)

// String returns the tag's name.
func (t Tag) String() string {
	switch t {
	case TagSDS:
		return "SDS"
	case TagAttr:
		return "Attr"
	case TagVGroup:
		return "VGroup"
	default:
		return fmt.Sprintf("Tag(%#04x)", uint16(t))
	}
}

// NumType identifies an array element type.
type NumType uint16

const (
	TypeUint8 NumType = iota + 1
	TypeInt32
	TypeInt64
	TypeFloat32
	TypeFloat64
)

// Size returns the element size in bytes.
func (t NumType) Size() int {
	switch t {
	case TypeUint8:
		return 1
	case TypeInt32, TypeFloat32:
		return 4
	case TypeInt64, TypeFloat64:
		return 8
	default:
		return 0
	}
}

// String returns the type's name.
func (t NumType) String() string {
	switch t {
	case TypeUint8:
		return "uint8"
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	default:
		return fmt.Sprintf("NumType(%d)", uint16(t))
	}
}

// Ref is an object reference number, unique within a file.
type Ref uint32

// Errors returned by the package. Match with errors.Is.
var (
	ErrNotSHDF    = errors.New("shdf: not an SHDF file")
	ErrCorrupt    = errors.New("shdf: corrupt file")
	ErrChecksum   = errors.New("shdf: object checksum mismatch")
	ErrNoObject   = errors.New("shdf: no such object")
	ErrBadType    = errors.New("shdf: unsupported data type")
	ErrBadShape   = errors.New("shdf: dims do not match data length")
	ErrWriterDone = errors.New("shdf: writer already closed")
)

// dirEntry is one directory record as a File reads it: the on-disk fields
// and its name's span in the File's names string, 32 bytes. Entries are
// written once, by readDirectory, and read without a lock; what a File
// learns later — which payloads passed their CRC, and on the ReadAt path
// their buffers — it keeps beside the entries, under its mutex.
type dirEntry struct {
	offset  uint64
	length  uint64
	ref     Ref
	crc     uint32
	nameAt  uint32
	tag     Tag
	nameLen uint16
}

// nameIn returns the entry's name, a substring of names.
func (e *dirEntry) nameIn(names string) string {
	return names[e.nameAt : e.nameAt+uint32(e.nameLen)]
}
