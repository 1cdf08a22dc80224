package remote

import "godiva/internal/genx"

// encodeFilePayloadSegments serializes a FilePayload on its own, as the
// segments of a frame payload (frameEnc.filePayload gives the layout).
// Array segments alias fp's slices. copied reports array bytes that could
// not be borrowed and were encoded element-wise. limit bounds the total
// payload size (the wire cap is maxFrame-2; tests pass smaller limits);
// exceeding it returns ErrFrameTooLarge.
func encodeFilePayloadSegments(fp *FilePayload, limit int) (segs [][]byte, copied int64, err error) {
	var f frameEnc
	f.reset()
	f.filePayload(fp)
	if err := frameFits(f.off(), limit); err != nil {
		return nil, 0, err
	}
	return f.payload(), f.copied, nil
}

// encodeSpec serializes the dataset shape answered by OpSpec.
func encodeSpec(s genx.Spec) []byte {
	var e enc
	e.spec(s)
	return e.b
}
