// One implementation per technique. A mention in prose of a retired twin
// carries the allow marker: ValueReliefView  // pxlint: allow(reference)
int Explain();
