#include "state/account.h"

#include "common/codec.h"

namespace porygon::state {

Bytes EncodeAccount(const Account& account) {
  Encoder enc;
  enc.PutU64(account.balance);
  enc.PutU64(account.nonce);
  return enc.TakeBuffer();
}

Result<Account> DecodeAccount(ByteView data) {
  Decoder dec(data);
  Account account;
  PORYGON_ASSIGN_OR_RETURN(account.balance, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(account.nonce, dec.GetU64());
  PORYGON_RETURN_IF_ERROR(dec.Finish("account"));
  return account;
}

Bytes AccountKey(AccountId id) {
  Encoder enc;
  enc.PutU64(id);
  return enc.TakeBuffer();
}

Result<AccountId> DecodeAccountKey(ByteView data) {
  Decoder dec(data);
  PORYGON_ASSIGN_OR_RETURN(AccountId id, dec.GetU64());
  PORYGON_RETURN_IF_ERROR(dec.Finish("key"));
  return id;
}

}  // namespace porygon::state
