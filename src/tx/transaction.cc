#include "tx/transaction.h"

namespace porygon::tx {

namespace {
// The signed body: from, to, amount, nonce and submitted_at as
// little-endian u64s. Encode() appends the signature to it.
Bytes EncodeBody(const Transaction& t) {
  Encoder enc;
  enc.PutU64(t.from);
  enc.PutU64(t.to);
  enc.PutU64(t.amount);
  enc.PutU64(t.nonce);
  enc.PutU64(t.submitted_at);
  return enc.TakeBuffer();
}
}  // namespace

TxId Transaction::Id() const {
  // The same bytes as EncodeBody, written to the stack: the id is hashed
  // several times per transaction and needs no heap buffer.
  uint8_t body[5 * sizeof(uint64_t)];
  StoreLittleEndian64(body, from);
  StoreLittleEndian64(body + 8, to);
  StoreLittleEndian64(body + 16, amount);
  StoreLittleEndian64(body + 24, nonce);
  StoreLittleEndian64(body + 32, submitted_at);
  return crypto::Sha256::Hash(ByteView(body, sizeof(body)));
}

Bytes Transaction::Encode() const {
  Bytes out = EncodeBody(*this);
  out.insert(out.end(), signature.begin(), signature.end());
  return out;
}

Result<Transaction> Transaction::Decode(ByteView data) {
  Decoder dec(data);
  PORYGON_ASSIGN_OR_RETURN(Transaction t, DecodeFrom(&dec));
  PORYGON_RETURN_IF_ERROR(dec.Finish("tx"));
  return t;
}

Result<Transaction> Transaction::DecodeFrom(Decoder* dec) {
  Transaction t;
  PORYGON_ASSIGN_OR_RETURN(t.from, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.to, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.amount, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.nonce, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.submitted_at, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.signature, dec->GetArray<64>());
  return t;
}

bool Transaction::operator==(const Transaction& other) const {
  return from == other.from && to == other.to && amount == other.amount &&
         nonce == other.nonce && submitted_at == other.submitted_at &&
         signature == other.signature;
}

}  // namespace porygon::tx
