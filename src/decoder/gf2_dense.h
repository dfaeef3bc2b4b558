/**
 * @file
 * Word-packed dense GF(2) linear algebra for the OSD post-pass.
 *
 * The gf2::Matrix/BitVec substrate is a value-type API built for the
 * paper's offline code analysis; the decoder hot loop needs the opposite
 * trade-off: flat reusable storage, no per-operation allocation, and an
 * elimination primitive shaped exactly like OSD-0's "push columns in
 * reliability order until the syndrome is explainable". This header
 * provides both pieces:
 *
 *  - DenseBitMat: a rows() x cols() bit matrix, 64 columns per word,
 *    row-major, with reset() reusing capacity. The decoder keeps one per
 *    DEM as its packed check-matrix columns (row c = column c over the
 *    detectors).
 *
 *  - Gf2Eliminator: incremental row-swap-free Gaussian elimination over
 *    candidate columns. Each accepted pivot is stored reduced against all
 *    earlier pivots (lower-triangular in push order, no row swaps — the
 *    pivot row is recorded, never moved), together with a bit-packed
 *    member set over pivot slots recording which pushed columns XOR to
 *    it. The syndrome is reduced *incrementally*: a new pivot is applied
 *    at most once, when it is created, so the "is the syndrome
 *    explainable yet" check is one zero-scan instead of the reference
 *    implementation's full re-reduction against every pivot per step,
 *    and solution membership is tracked by word-wide XOR instead of
 *    member-list splicing. For any push sequence the solved/pivot
 *    decisions and the final solution are identical to the reference
 *    elimination: both express the syndrome over the same independent
 *    column set, on which the representation is unique.
 */
#ifndef PROPHUNT_DECODER_GF2_DENSE_H
#define PROPHUNT_DECODER_GF2_DENSE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prophunt::decoder {

/** Reusable dense bit matrix: row-major, 64 columns per machine word. */
class DenseBitMat
{
  public:
    DenseBitMat() = default;

    DenseBitMat(std::size_t rows, std::size_t cols) { reset(rows, cols); }

    /** Resize to rows x cols, zero every bit; reuses capacity. */
    void reset(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    /** Words per row: ceil(cols / 64). */
    std::size_t rowWords() const { return rowWords_; }

    uint64_t *row(std::size_t r) { return words_.data() + r * rowWords_; }

    const uint64_t *
    row(std::size_t r) const
    {
        return words_.data() + r * rowWords_;
    }

    bool
    get(std::size_t r, std::size_t c) const
    {
        return (row(r)[c >> 6] >> (c & 63)) & 1;
    }

    void
    set(std::size_t r, std::size_t c, bool v = true)
    {
        uint64_t bit = uint64_t{1} << (c & 63);
        if (v) {
            row(r)[c >> 6] |= bit;
        } else {
            row(r)[c >> 6] &= ~bit;
        }
    }

    void clearRow(std::size_t r);

    /** dst ^= row(src), word-wise (dst must hold rowWords() words). */
    void xorRowInto(std::size_t src, uint64_t *dst) const;

    /** Rank over GF(2); non-destructive (eliminates a scratch copy).
     * A diagnostic/test utility, not a hot-path primitive — the decode
     * paths use Gf2Eliminator, which never allocates once warm. */
    std::size_t rank() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t rowWords_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Incremental OSD-style GF(2) elimination with reusable scratch.
 *
 * Usage: begin(numRows), set syndrome bits, then push() candidate column
 * vectors in preference order until push() returns true (the syndrome
 * became explainable) or the candidates run out. solution() then lists
 * the push-order indices whose columns XOR to the syndrome; the support
 * is always a subset of the pushed columns that became pivots.
 *
 * No allocation happens in push() once the instance has warmed up to the
 * problem size (pivot storage grows geometrically and is kept).
 */
class Gf2Eliminator
{
  public:
    /** Start a solve over rows 0..numRows-1; clears the syndrome. */
    void begin(std::size_t numRows);

    /** Set syndrome bit @p r. Call between begin() and the first push(). */
    void setSyndromeBit(std::size_t r);

    /** Words per packed column: ceil(numRows / 64). */
    std::size_t rowWords() const { return rowWords_; }

    /**
     * Process the next candidate column (@p col: rowWords() packed words,
     * not modified). Returns solved(): once true, further pushes are
     * no-ops and the solution is frozen — the OSD-0 stopping rule.
     */
    bool push(const uint64_t *col);

    /** True iff the syndrome lies in the span of the pushed columns. */
    bool solved() const { return solved_; }

    /** Number of independent columns accepted so far. */
    std::size_t rank() const { return pivLead_.size(); }

    /** Number of push() calls since begin() (solved() freezes it). */
    std::size_t pushCount() const { return pushed_; }

    /**
     * Push-order indices of the columns in the solution, ascending.
     * Valid when solved(); the indices count every push (dependent
     * columns included in the numbering, never in the support).
     */
    void solution(std::vector<uint32_t> &out) const;

  private:
    std::size_t rowWords_ = 0;
    std::size_t memWords_ = 0; ///< Words of a pivot-slot member set.
    std::size_t pushed_ = 0;
    bool solved_ = false;
    /** Pivot storage, one stride = rowWords_ column words followed by
     * memWords_ member words (pivot-slot bits). */
    std::vector<uint64_t> pivData_;
    std::vector<uint32_t> pivLead_; ///< Lead row per pivot.
    std::vector<uint32_t> pivPush_; ///< Push index per pivot slot.
    std::vector<uint64_t> rSyn_;    ///< Syndrome reduced by all pivots.
    std::vector<uint64_t> solMem_;  ///< Pivot slots XORed into the syndrome.
    std::vector<uint64_t> cand_;    ///< Candidate scratch (column + members).
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_GF2_DENSE_H
